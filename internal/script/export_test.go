package script

import (
	"reflect"
	"sort"

	"act/internal/scenario"
)

// Test-only access to the host boundary for the external script_test
// package, which imports conform (and so cannot live in package script).

// WalkSpec is the direct spec walk alone, without the round-trip
// fallback.
func WalkSpec(v Value) (*scenario.Spec, bool) {
	m, ok := v.(*Map)
	if !ok {
		return nil, false
	}
	return walkSpec(m)
}

// CompactJSON is the compact encoding the round trip hands the decoder.
func CompactJSON(v Value) ([]byte, error) {
	return appendValueCompact(nil, v, 0)
}

// DecodeDoc decodes a result document under an unlimited alloc budget.
func DecodeDoc(doc []byte) (Value, error) {
	in := &interp{budget: Budget{MaxAllocBytes: -1}.withDefaults()}
	return decodeDoc(in, doc)
}

// SetDirectSpecs turns the direct spec walk on or off and returns a
// function restoring the previous setting. Callers must not run in
// parallel with other evaluations.
func SetDirectSpecs(on bool) (restore func()) {
	prev := directSpecs
	directSpecs = on
	return func() { directSpecs = prev }
}

// WalkerKeys returns the direct walk's accepted keys, sorted, per struct
// type it decodes.
func WalkerKeys() map[reflect.Type][]string {
	return map[reflect.Type][]string{
		reflect.TypeOf(scenario.Spec{}):          keysOf(specFields),
		reflect.TypeOf(scenario.LogicSpec{}):     keysOf(logicFields),
		reflect.TypeOf(scenario.FabSpec{}):       keysOf(fabFields),
		reflect.TypeOf(scenario.DRAMSpec{}):      keysOf(dramFields),
		reflect.TypeOf(scenario.StorageSpec{}):   keysOf(storageFields),
		reflect.TypeOf(scenario.UsageSpec{}):     keysOf(usageFields),
		reflect.TypeOf(scenario.TransportSpec{}): keysOf(transportFields),
		reflect.TypeOf(scenario.EndOfLifeSpec{}): keysOf(endOfLifeFields),
	}
}

func keysOf[T any](fs fieldSet[T]) []string {
	keys := make([]string, 0, len(fs))
	for k := range fs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
