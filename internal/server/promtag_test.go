// Declaration completeness: every /metrics scalar family is declared once, by
// the prom tag on the field that carries its value (see StatsSnapshot). The
// test walks StatsSnapshot and every struct it holds, so a counter added to
// /stats without a /metrics family, or with a malformed one, fails here
// rather than passing every other test. It needs no server.

package server

import (
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// promScalarNameRE is a declared family name: the exposition contract's
// shape (promNameRE) without the kvserve_ prefix the writer adds.
var promScalarNameRE = regexp.MustCompile(`^[a-z][a-z_]*$`)

func isNumberKind(k reflect.Kind) bool {
	return reflect.Int <= k && k <= reflect.Float64
}

func TestEveryStatsFieldDeclaresItsFamily(t *testing.T) {
	declared := map[string]string{} // family name → the field declaring it
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			where := path + "." + f.Name
			tag, tagged := f.Tag.Lookup("prom")
			if !f.IsExported() || tag == "-" {
				continue
			}
			if !tagged {
				elem := f.Type
				for k := elem.Kind(); k == reflect.Pointer || k == reflect.Slice || k == reflect.Array || k == reflect.Map; k = elem.Kind() {
					elem = elem.Elem()
				}
				switch {
				case elem.Kind() == reflect.Struct:
					walk(elem, where)
				case isNumberKind(elem.Kind()) || elem.Kind() == reflect.Bool:
					t.Errorf(`%s: no prom tag (declare its /metrics family, or mark it prom:"-")`, where)
				}
				continue
			}

			d := parsePromTag(tag)
			canon := d.name + "," + d.typ
			if d.mib {
				canon += ",mib"
			}
			if d.cond != "" {
				canon += ",if=" + d.cond
			}
			if canon != tag {
				t.Errorf("%s: prom tag %q is not name,type[,mib][,if=Field] (it reads as %q)", where, tag, canon)
			}
			if !promScalarNameRE.MatchString(d.name) {
				t.Errorf("%s: family name %q is not lowercase words", where, d.name)
			}
			if prev, dup := declared[d.name]; dup {
				t.Errorf("%s: family %q is already declared by %s", where, d.name, prev)
			}
			declared[d.name] = where
			switch d.typ {
			case "gauge":
			case "counter":
				if !strings.HasSuffix(d.name, "_total") {
					t.Errorf("%s: counter %q does not end in _total", where, d.name)
				}
			default:
				t.Errorf("%s: type %q is neither counter nor gauge", where, d.typ)
			}
			if !isNumberKind(f.Type.Kind()) {
				t.Errorf("%s: a %s field cannot be a scalar family", where, f.Type)
			}
			if d.mib && f.Type.Kind() != reflect.Float64 {
				t.Errorf("%s: option mib on a %s field (it converts a MiB float64)", where, f.Type)
			}
			if c, ok := typ.FieldByName(d.cond); d.cond != "" && (!ok || c.Type.Kind() != reflect.Bool) {
				t.Errorf("%s: if=%s names no bool field of %s", where, d.cond, typ)
			}
			if help := f.Tag.Get("help"); help == "" || strings.ContainsAny(help, "\n\\") {
				t.Errorf("%s: help text %q is empty or needs escaping", where, help)
			}
		}
	}
	walk(reflect.TypeOf(StatsSnapshot{}), "StatsSnapshot")
	if len(declared) == 0 {
		t.Fatal("no prom tags found")
	}
}
