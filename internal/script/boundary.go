// The host boundary: script maps in, scenario specs out; canonical result
// documents in, script values out. Both directions skip encoding/json on
// the common path — a sweep crosses this boundary once per scenario — and
// both keep the JSON round trip as the definition of what they must
// produce: the spec walk hands anything it cannot prove round-trip-exact
// to the strict decoder, and the document walker builds exactly the tree
// a token-by-token JSON decode would.

package script

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"act/internal/scenario"
)

// specFromValue converts a script map into a wire scenario. The direct
// walk takes maps whose every key is an exact field tag and whose every
// value decodes identically through JSON; anything else goes through the
// strict decoder, so scripts get exactly the validation surface of the
// HTTP and CLI layers (unknown fields rejected, same error texts).
func specFromValue(pos Pos, v Value) (*scenario.Spec, error) {
	m, ok := v.(*Map)
	if !ok {
		return nil, errAt(pos, "footprint needs a scenario map or a list of them, got %s", typeName(v))
	}
	if directSpecs {
		if spec, ok := walkSpec(m); ok {
			return spec, nil
		}
	}
	return specRoundTrip(pos, m)
}

// directSpecs switches the direct spec walk on; tests turn it off to run
// the strict round trip alone as the reference.
var directSpecs = true

// specRoundTrip is the reference conversion: compact JSON through
// scenario.Unmarshal, the decoder every other surface uses.
func specRoundTrip(pos Pos, m *Map) (*scenario.Spec, error) {
	data, err := appendValueCompact(nil, m, 0)
	if err != nil {
		return nil, err
	}
	spec, err := scenario.Unmarshal(data)
	if err != nil {
		return nil, &Error{Pos: pos, Msg: fmt.Sprintf("invalid scenario: %v", err), Err: err}
	}
	return spec, nil
}

// walkSpec builds a Spec straight from a script map. It reports false —
// and the caller falls back to the round trip — on any key that is not
// an exact JSON tag, and on any value whose JSON encoding would not
// decode back to the same Go value: nil, non-finite numbers, numbers
// that are not exact ints for int fields, invalid UTF-8, wrong types,
// and versions the decoder rejects.
func walkSpec(m *Map) (*scenario.Spec, bool) {
	s := new(scenario.Spec)
	if !walkStruct(specFields, m, s) {
		return nil, false
	}
	if s.Version == 0 {
		s.Version = scenario.Version
	}
	return s, true
}

// fieldSet maps a struct's JSON tags to setters that decode one script
// value into that field, reporting false when the value is not
// round-trip-exact for it.
type fieldSet[T any] map[string]func(*T, Value) bool

var specFields = fieldSet[scenario.Spec]{
	"version": func(s *scenario.Spec, v Value) bool {
		return walkInt(v, &s.Version) && (s.Version == 0 || s.Version == scenario.Version)
	},
	"name":           func(s *scenario.Spec, v Value) bool { return walkString(v, &s.Name) },
	"logic":          func(s *scenario.Spec, v Value) bool { return walkList(logicFields, v, &s.Logic) },
	"dram":           func(s *scenario.Spec, v Value) bool { return walkList(dramFields, v, &s.DRAM) },
	"storage":        func(s *scenario.Spec, v Value) bool { return walkList(storageFields, v, &s.Storage) },
	"extra_ics":      func(s *scenario.Spec, v Value) bool { return walkInt(v, &s.ExtraICs) },
	"usage":          func(s *scenario.Spec, v Value) bool { return walkStruct(usageFields, v, &s.Usage) },
	"transport":      func(s *scenario.Spec, v Value) bool { return walkList(transportFields, v, &s.Transport) },
	"end_of_life":    func(s *scenario.Spec, v Value) bool { return walkPtr(endOfLifeFields, v, &s.EndOfLife) },
	"lifetime_years": func(s *scenario.Spec, v Value) bool { return walkFloat(v, &s.LifetimeYears) },
}

var logicFields = fieldSet[scenario.LogicSpec]{
	"name":     func(l *scenario.LogicSpec, v Value) bool { return walkString(v, &l.Name) },
	"area_mm2": func(l *scenario.LogicSpec, v Value) bool { return walkFloat(v, &l.AreaMM2) },
	"node":     func(l *scenario.LogicSpec, v Value) bool { return walkString(v, &l.Node) },
	"count":    func(l *scenario.LogicSpec, v Value) bool { return walkInt(v, &l.Count) },
	"fab":      func(l *scenario.LogicSpec, v Value) bool { return walkPtr(fabFields, v, &l.Fab) },
}

var fabFields = fieldSet[scenario.FabSpec]{
	"carbon_intensity": func(f *scenario.FabSpec, v Value) bool { return walkFloat(v, &f.CarbonIntensity) },
	"abatement":        func(f *scenario.FabSpec, v Value) bool { return walkFloat(v, &f.Abatement) },
	"yield":            func(f *scenario.FabSpec, v Value) bool { return walkFloat(v, &f.Yield) },
}

var dramFields = fieldSet[scenario.DRAMSpec]{
	"name":        func(d *scenario.DRAMSpec, v Value) bool { return walkString(v, &d.Name) },
	"technology":  func(d *scenario.DRAMSpec, v Value) bool { return walkString(v, &d.Technology) },
	"capacity_gb": func(d *scenario.DRAMSpec, v Value) bool { return walkFloat(v, &d.CapacityGB) },
}

var storageFields = fieldSet[scenario.StorageSpec]{
	"name":        func(d *scenario.StorageSpec, v Value) bool { return walkString(v, &d.Name) },
	"technology":  func(d *scenario.StorageSpec, v Value) bool { return walkString(v, &d.Technology) },
	"capacity_gb": func(d *scenario.StorageSpec, v Value) bool { return walkFloat(v, &d.CapacityGB) },
}

var usageFields = fieldSet[scenario.UsageSpec]{
	"power_w":             func(u *scenario.UsageSpec, v Value) bool { return walkFloat(v, &u.PowerW) },
	"app_hours":           func(u *scenario.UsageSpec, v Value) bool { return walkFloat(v, &u.AppHours) },
	"intensity_g_per_kwh": func(u *scenario.UsageSpec, v Value) bool { return walkFloat(v, &u.IntensityGPerKWh) },
	"pue":                 func(u *scenario.UsageSpec, v Value) bool { return walkFloat(v, &u.PUE) },
	"battery_efficiency":  func(u *scenario.UsageSpec, v Value) bool { return walkFloat(v, &u.BatteryEfficiency) },
}

var transportFields = fieldSet[scenario.TransportSpec]{
	"name":        func(t *scenario.TransportSpec, v Value) bool { return walkString(v, &t.Name) },
	"mass_kg":     func(t *scenario.TransportSpec, v Value) bool { return walkFloat(v, &t.MassKg) },
	"distance_km": func(t *scenario.TransportSpec, v Value) bool { return walkFloat(v, &t.DistanceKm) },
	"mode":        func(t *scenario.TransportSpec, v Value) bool { return walkString(v, &t.Mode) },
}

var endOfLifeFields = fieldSet[scenario.EndOfLifeSpec]{
	"processing_kg":       func(e *scenario.EndOfLifeSpec, v Value) bool { return walkFloat(v, &e.ProcessingKg) },
	"recycling_credit_kg": func(e *scenario.EndOfLifeSpec, v Value) bool { return walkFloat(v, &e.RecyclingCreditKg) },
}

// walkStruct decodes a map into dst field by field.
func walkStruct[T any](fields fieldSet[T], v Value, dst *T) bool {
	m, ok := v.(*Map)
	if !ok {
		return false
	}
	for _, k := range m.keys {
		set, ok := fields[k]
		if !ok || !set(dst, m.vals[k]) {
			return false
		}
	}
	return true
}

// walkPtr decodes a map into a fresh *T, as encoding/json does for a nil
// pointer field (so {} yields a non-nil zero struct).
func walkPtr[T any](fields fieldSet[T], v Value, dst **T) bool {
	p := new(T)
	if !walkStruct(fields, v, p) {
		return false
	}
	*dst = p
	return true
}

// walkList decodes a list of maps into a fresh slice; an empty list
// yields an empty non-nil slice, as encoding/json builds it.
func walkList[T any](fields fieldSet[T], v Value, dst *[]T) bool {
	l, ok := v.(*List)
	if !ok {
		return false
	}
	out := make([]T, len(l.Elems))
	for i, e := range l.Elems {
		if !walkStruct(fields, e, &out[i]) {
			return false
		}
	}
	*dst = out
	return true
}

// walkFloat takes finite numbers: they encode to their shortest
// round-trip form and parse back to the same bits. NaN and ±Inf encode
// as null, which the decoder would skip.
func walkFloat(v Value, dst *float64) bool {
	f, ok := v.(float64)
	if !ok || math.IsNaN(f) || math.IsInf(f, 0) {
		return false
	}
	*dst = f
	return true
}

// walkInt takes integral numbers up to 2^53 in magnitude: they encode as
// plain digit strings an int field parses exactly. Fractions, exponent
// forms and overflow are the decoder's to reject.
func walkInt(v Value, dst *int) bool {
	f, ok := v.(float64)
	if !ok || f != math.Trunc(f) || math.Abs(f) > 1<<53 {
		return false
	}
	*dst = int(f)
	return true
}

// walkString takes valid UTF-8: the encoder replaces invalid bytes with
// U+FFFD, so those strings do not survive the round trip unchanged.
func walkString(v Value, dst *string) bool {
	s, ok := v.(string)
	if !ok || !utf8.ValidString(s) {
		return false
	}
	*dst = s
	return true
}

// decodeDoc parses a canonical result document into script values,
// preserving the document's key order so script output stays as
// deterministic as the document itself.
func decodeDoc(in *interp, doc []byte) (Value, error) {
	if err := in.charge(int64(len(doc)) * 2); err != nil {
		return nil, err
	}
	d := docDecoder{data: doc}
	v, err := d.value(0)
	if err != nil {
		return nil, &Error{Msg: fmt.Sprintf("internal: decoding result document: %v", err), Err: err}
	}
	return v, nil
}

// docDecoder walks one JSON document byte by byte. It builds the tree a
// json.Decoder token walk with UseNumber and Float64 builds — the same
// maps, lists and scalars, keys in document order — without the
// decoder's per-token interface boxing and scanner state.
type docDecoder struct {
	data []byte
	pos  int
}

// docStrings interns the canonical document's field names and fixed
// vocabulary, so decoding them allocates nothing.
var docStrings = func() map[string]string {
	m := map[string]string{}
	for _, s := range []string{
		"device", "app_hours", "lifetime_years", "operational_g",
		"embodied_total_g", "embodied_share_g", "total_g", "breakdown",
		"name", "kind", "embodied_g", "life_cycle", "phases", "phase",
		"emissions_g", "share",
		"logic", "dram", "ssd", "hdd", "packaging",
		"manufacturing", "transport", "use", "end-of-life",
	} {
		m[s] = s
	}
	return m
}()

// Decoded containers are presized for the canonical document's shapes:
// eight top-level fields (nine with a life cycle, which grows the map
// once), breakdowns of a few parts, four life-cycle phases.
const (
	docObjectHint = 8
	docArrayHint  = 4
)

func (d *docDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// next skips whitespace and returns the next byte without consuming it,
// or 0 at the end of input.
func (d *docDecoder) next() byte {
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

func (d *docDecoder) value(depth int) (Value, error) {
	if depth > maxValueDepth {
		return nil, errTooDeep
	}
	switch c := d.next(); {
	case c == '{':
		return d.object(depth)
	case c == '[':
		return d.array(depth)
	case c == '"':
		s, err := d.str()
		if err != nil {
			return nil, err
		}
		return s, nil
	case c == 't':
		return d.literal("true", true)
	case c == 'f':
		return d.literal("false", false)
	case c == 'n':
		return d.literal("null", nil)
	case c == '-' || c >= '0' && c <= '9':
		return d.number()
	case c == 0:
		return nil, d.errorf("unexpected end of document")
	default:
		return nil, d.errorf("invalid character %q looking for a value", c)
	}
}

func (d *docDecoder) object(depth int) (Value, error) {
	d.pos++ // '{'
	if d.next() == '}' {
		d.pos++
		return NewMap(), nil
	}
	m := &Map{keys: make([]string, 0, docObjectHint), vals: make(map[string]Value, docObjectHint)}
	for {
		if d.next() != '"' {
			return nil, d.errorf("expected an object key")
		}
		key, err := d.str()
		if err != nil {
			return nil, err
		}
		if d.next() != ':' {
			return nil, d.errorf("expected ':' after object key")
		}
		d.pos++
		v, err := d.value(depth + 1)
		if err != nil {
			return nil, err
		}
		m.Set(key, v)
		switch d.next() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return m, nil
		default:
			return nil, d.errorf("expected ',' or '}' in object")
		}
	}
}

func (d *docDecoder) array(depth int) (Value, error) {
	d.pos++ // '['
	l := &List{}
	if d.next() == ']' {
		d.pos++
		return l, nil
	}
	l.Elems = make([]Value, 0, docArrayHint)
	for {
		v, err := d.value(depth + 1)
		if err != nil {
			return nil, err
		}
		l.Elems = append(l.Elems, v)
		switch d.next() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return l, nil
		default:
			return nil, d.errorf("expected ',' or ']' in array")
		}
	}
}

// str decodes a quoted string. Escape-free ASCII, and escape-free valid
// UTF-8, is taken as is; anything else is unquoted by encoding/json, so
// escapes, invalid bytes and control characters get the stdlib's
// treatment by construction.
func (d *docDecoder) str() (string, error) {
	start := d.pos
	escaped, ascii := false, true
	i := start + 1
	for ; i < len(d.data); i++ {
		c := d.data[i]
		if c == '"' {
			break
		}
		switch {
		case c == '\\':
			escaped = true
			i++
		case c < 0x20:
			escaped = true
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	if i >= len(d.data) {
		return "", d.errorf("unterminated string")
	}
	d.pos = i + 1
	raw := d.data[start+1 : i]
	if !escaped && (ascii || utf8.Valid(raw)) {
		if s, ok := docStrings[string(raw)]; ok {
			return s, nil
		}
		return string(raw), nil
	}
	var s string
	if err := json.Unmarshal(d.data[start:d.pos], &s); err != nil {
		return "", err
	}
	return s, nil
}

func (d *docDecoder) literal(word string, v Value) (Value, error) {
	if len(d.data)-d.pos < len(word) || string(d.data[d.pos:d.pos+len(word)]) != word {
		return nil, d.errorf("invalid literal, want %s", word)
	}
	d.pos += len(word)
	return v, nil
}

// number parses a JSON number with strconv.ParseFloat, the conversion
// json.Number.Float64 performs.
func (d *docDecoder) number() (Value, error) {
	start := d.pos
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		if c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' {
			d.pos++
			continue
		}
		break
	}
	f, err := strconv.ParseFloat(string(d.data[start:d.pos]), 64)
	if err != nil {
		return nil, err
	}
	return f, nil
}
