// The wire-client cases: every discard shape, text matching, the clean
// typed-sentinel path, and the retired hatch that no longer waives a
// discard.
package statusdata

import (
	"errors"
	"fmt"
	"strings"

	"internal/server"
)

func discards(c *server.Client) {
	c.Ping()             // want `error from Client.Ping discarded`
	_ = c.Ping()         // want `error from Client.Ping assigned to _`
	_, _, _ = c.Get(nil) // want `error from Client.Get assigned to _`
	go c.Ping()          // want `error from Client.Ping unobservable in go statement`
	defer c.Ping()       // want `error from Client.Ping unobservable in defer`
}

// value results may be discarded as long as the error is not.
func valueDiscard(c *server.Client) error {
	_, _, err := c.Get(nil)
	return err
}

// Close is advisory, not a protocol status.
func closes(c *server.Client) {
	c.Close()
}

func textMatch(c *server.Client) bool {
	err := c.Ping()
	if err == nil {
		return true
	}
	if err.Error() == "request timed out" { // want `dispatching on err.Error\(\) text; use errors.Is`
		return false
	}
	if strings.Contains(err.Error(), "poisoned") { // want `dispatching on err.Error\(\) text via strings.Contains`
		return false
	}
	return err.Error() != "x" // want `dispatching on err.Error\(\) text; use errors.Is`
}

// typed is the contract done right; printing the text is also fine.
func typed(c *server.Client) bool {
	err := c.Ping()
	if errors.Is(err, server.ErrTimeout) {
		return false
	}
	if err != nil {
		fmt.Println(err.Error())
	}
	return true
}

// excused: //lint:allowstatus is no hatch; the discard is reported.
func excused(c *server.Client) {
	//lint:allowstatus audited
	c.Ping() // want `error from Client.Ping discarded`
}
