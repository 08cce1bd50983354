// Errors of an unwatched type may be discarded, but text dispatch on
// err.Error() is wrong whatever the error's source.
package statusnotypes

import "errors"

type thing struct{}

func (t *thing) do() error { return errors.New("boom") }

func discardOK(t *thing) {
	t.do() // unwatched type: no diagnostic
}

func textStillBad(t *thing) bool {
	err := t.do()
	return err != nil && err.Error() == "boom" // want `dispatching on err.Error\(\) text; use errors.Is`
}
