package trace_test

import (
	"reflect"
	"testing"
	"unsafe"

	"apisense/internal/poi"
	"apisense/internal/trace"
)

// TestRecordLayout pins the size of the values a publication holds by the
// million, and that they hold no pointer: the garbage collector then never
// scans a record slice, and no later field can quietly bring that back.
func TestRecordLayout(t *testing.T) {
	for _, c := range []struct {
		typ        reflect.Type
		size, want uintptr
	}{
		{reflect.TypeOf(trace.Record{}), unsafe.Sizeof(trace.Record{}), 32},
		{reflect.TypeOf(poi.POI{}), unsafe.Sizeof(poi.POI{}), 40},
	} {
		if c.size != c.want {
			t.Errorf("%v is %d bytes, want %d", c.typ, c.size, c.want)
		}
		if path := pointerPath(c.typ); path != "" {
			t.Errorf("%v holds a pointer at %s", c.typ, path)
		}
	}
}

// pointerPath returns where typ holds a pointer (".Field" steps, "[]" for
// an array element), or "" when it holds none.
func pointerPath(typ reflect.Type) string {
	switch typ.Kind() {
	case reflect.Struct:
		for i := range typ.NumField() {
			f := typ.Field(i)
			if p := pointerPath(f.Type); p != "" {
				return "." + f.Name + p
			}
		}
		return ""
	case reflect.Array:
		if p := pointerPath(typ.Elem()); p != "" {
			return "[]" + p
		}
		return ""
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
		reflect.Interface, reflect.Chan, reflect.Func:
		return " (" + typ.String() + ")"
	}
	return ""
}
