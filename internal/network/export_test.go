package network

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// unobservedFields are the Network fields stateImage leaves out: the
// attached observers and the memo readers fill, none of which a simulation
// reads back.
var unobservedFields = map[string]bool{
	"ring": true, "tel": true, "observed": true, "prof": true, "OnDeliver": true,
	"countersCache": true, "countersAt": true, "countersValid": true,
}

// stateImage returns a deep copy of n's simulation state as text: every
// value reachable from the Network's fields but unobservedFields — the
// shared router.State, every router view, packets, sources, the Token —
// unexported fields included, each pointer's target once, in field order.
// Equal images mean equal states, so an image taken before a read and
// compared after it shows whether the read wrote.
func stateImage(n *Network) string {
	im := imager{seen: map[imageRef]bool{}}
	v := reflect.ValueOf(n).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); !unobservedFields[f.Name] {
			fmt.Fprintf(&im.b, "%s: ", f.Name)
			im.walk(v.Field(i))
			im.b.WriteByte('\n')
		}
	}
	return im.b.String()
}

// imageRef identifies a pointer target: a struct and its first field share
// an address, not a type.
type imageRef struct {
	addr uintptr
	t    reflect.Type
}

type imager struct {
	b    strings.Builder
	seen map[imageRef]bool
}

func (im *imager) walk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		fmt.Fprint(&im.b, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprint(&im.b, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprint(&im.b, v.Uint())
	case reflect.Float32, reflect.Float64:
		fmt.Fprint(&im.b, v.Float())
	case reflect.String:
		fmt.Fprintf(&im.b, "%q", v.String())
	case reflect.Pointer:
		if v.IsNil() {
			im.b.WriteString("nil")
			return
		}
		ref := imageRef{v.Pointer(), v.Type()}
		fmt.Fprintf(&im.b, "@%x", ref.addr)
		if !im.seen[ref] {
			im.seen[ref] = true
			im.walk(v.Elem())
		}
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			im.b.WriteString("nil")
			return
		}
		im.b.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			im.walk(v.Index(i))
			im.b.WriteByte(' ')
		}
		im.b.WriteByte(']')
	case reflect.Struct:
		im.b.WriteByte('{')
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(&im.b, "%s:", v.Type().Field(i).Name)
			im.walk(v.Field(i))
			im.b.WriteByte(' ')
		}
		im.b.WriteByte('}')
	case reflect.Map:
		// Keys in a fixed order (a pointer key by address), so the targets
		// the values reach are visited in the same order every time.
		keys := v.MapKeys()
		text := make([]string, len(keys))
		for i, k := range keys {
			text[i] = fmt.Sprint(k)
		}
		sort.Sort(byText{keys, text})
		im.b.WriteString("map[")
		for i, k := range keys {
			fmt.Fprintf(&im.b, "%s:", text[i])
			im.walk(v.MapIndex(k))
			im.b.WriteByte(' ')
		}
		im.b.WriteByte(']')
	case reflect.Interface:
		if v.IsNil() {
			im.b.WriteString("nil")
			return
		}
		fmt.Fprintf(&im.b, "%s(", v.Elem().Type())
		im.walk(v.Elem())
		im.b.WriteByte(')')
	default: // func, chan, unsafe pointer: identity only
		fmt.Fprintf(&im.b, "%s@%x", v.Kind(), v.Pointer())
	}
}

// byText sorts map keys by their text.
type byText struct {
	keys []reflect.Value
	text []string
}

func (s byText) Len() int           { return len(s.keys) }
func (s byText) Less(i, j int) bool { return s.text[i] < s.text[j] }
func (s byText) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.text[i], s.text[j] = s.text[j], s.text[i]
}
