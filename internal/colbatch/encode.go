// Columnar document emission. appendDoc writes one item's ResultJSON
// document into the batch arena, replicating what
// json.Encoder{SetIndent("", "  ")}.Encode produces for the same values
// byte for byte: the same float formatting cutoffs, the same HTML-escaped
// string encoding, the same two-space indentation, the same trailing
// newline. Any value the stdlib encoder would reject (NaN, ±Inf) makes
// appendDoc report false and the item falls back to the scalar oracle,
// which reproduces the stdlib error.

package colbatch

import (
	"math"
	"strconv"
	"strings"

	"act/internal/report"
)

// memoFloat appends a formatted float, serving repeats from the
// resolver's dictionary: batch workloads (sweeps, fleets) reuse most
// values, and a map hit plus memcpy is several times cheaper than Ryu.
func (b *batch) memoFloat(buf []byte, f float64) ([]byte, bool) {
	bits := math.Float64bits(f)
	if sp, ok := b.res.floats[bits]; ok {
		return append(buf, b.res.farena[sp.start:sp.end]...), true
	}
	start := len(b.res.farena)
	fa, ok := report.AppendJSONFloat(b.res.farena, f)
	if !ok {
		return buf, false
	}
	b.res.farena = fa
	b.res.floats[bits] = docSpan{start, len(fa)}
	return append(buf, fa[start:]...), true
}

// memoString appends an escaped quoted string through the same
// dictionary. Keys are cloned so the map never pins a spec's memory.
func (b *batch) memoString(buf []byte, s string) []byte {
	if sp, ok := b.res.strs[s]; ok {
		return append(buf, b.res.sarena[sp.start:sp.end]...)
	}
	start := len(b.res.sarena)
	b.res.sarena = report.AppendJSONString(b.res.sarena, s)
	b.res.strs[strings.Clone(s)] = docSpan{start, len(b.res.sarena)}
	return append(buf, b.res.sarena[start:]...)
}

// appendBreakdownItem emits one breakdown line. nameRaw carries a
// pre-rendered name (the packaging synthetic) that needs no escaping.
func (b *batch) appendBreakdownItem(buf []byte, first bool, name string, nameRaw []byte, kind string, g float64) ([]byte, bool) {
	if !first {
		buf = append(buf, ',')
	}
	buf = append(buf, "\n    {\n      \"name\": "...)
	if nameRaw != nil {
		buf = append(buf, nameRaw...)
	} else {
		buf = b.memoString(buf, name)
	}
	buf = append(buf, ",\n      \"kind\": \""...)
	buf = append(buf, kind...)
	buf = append(buf, "\",\n      \"embodied_g\": "...)
	var ok bool
	if buf, ok = b.memoFloat(buf, g); !ok {
		return buf, false
	}
	buf = append(buf, "\n    }"...)
	return buf, true
}

// appendPhase emits one life-cycle phase line.
func (b *batch) appendPhase(buf []byte, first bool, phase string, g, share float64) ([]byte, bool) {
	if !first {
		buf = append(buf, ',')
	}
	buf = append(buf, "\n      {\n        \"phase\": \""...)
	buf = append(buf, phase...)
	buf = append(buf, "\",\n        \"emissions_g\": "...)
	var ok bool
	if buf, ok = b.memoFloat(buf, g); !ok {
		return buf, false
	}
	buf = append(buf, ",\n        \"share\": "...)
	if buf, ok = b.memoFloat(buf, share); !ok {
		return buf, false
	}
	buf = append(buf, "\n      }"...)
	return buf, true
}

// appendDoc appends item i's complete result document to the arena and
// reports whether every value was encodable. On false the caller rewinds
// the arena and routes the item to the scalar oracle.
func (b *batch) appendDoc(i int) bool {
	buf, ok := b.appendDocTo(b.buf, i)
	b.buf = buf
	return ok
}

func (b *batch) appendDocTo(buf []byte, i int) ([]byte, bool) {
	var ok bool

	buf = append(buf, "{\n  \"device\": "...)
	buf = b.memoString(buf, b.name[i])
	buf = append(buf, ",\n  \"app_hours\": "...)
	if buf, ok = b.memoFloat(buf, b.appTime[i].Hours()); !ok {
		return buf, false
	}
	buf = append(buf, ",\n  \"lifetime_years\": "...)
	if buf, ok = b.memoFloat(buf, b.lifetime[i].Hours()/(365.25*24)); !ok {
		return buf, false
	}
	buf = append(buf, ",\n  \"operational_g\": "...)
	if buf, ok = b.memoFloat(buf, b.opG[i]); !ok {
		return buf, false
	}
	buf = append(buf, ",\n  \"embodied_total_g\": "...)
	if buf, ok = b.memoFloat(buf, b.embG[i]); !ok {
		return buf, false
	}
	buf = append(buf, ",\n  \"embodied_share_g\": "...)
	if buf, ok = b.memoFloat(buf, b.shareG[i]); !ok {
		return buf, false
	}
	buf = append(buf, ",\n  \"total_g\": "...)
	if buf, ok = b.memoFloat(buf, b.opG[i]+b.shareG[i]); !ok {
		return buf, false
	}

	buf = append(buf, ",\n  \"breakdown\": ["...)
	first := true
	for j := b.logicOff[i]; j < b.logicOff[i+1]; j++ {
		if buf, ok = b.appendBreakdownItem(buf, first, b.logicName[j], nil, "logic", b.logicEmb[j]); !ok {
			return buf, false
		}
		first = false
	}
	for j := b.dramOff[i]; j < b.dramOff[i+1]; j++ {
		if buf, ok = b.appendBreakdownItem(buf, first, b.dramName[j], nil, "dram", b.dramEmb[j]); !ok {
			return buf, false
		}
		first = false
	}
	for j := b.storOff[i]; j < b.storOff[i+1]; j++ {
		kind := "ssd"
		if b.storHDD[j] {
			kind = "hdd"
		}
		if buf, ok = b.appendBreakdownItem(buf, first, b.storName[j], nil, kind, b.storEmb[j]); !ok {
			return buf, false
		}
		first = false
	}
	if b.icN[i] > 0 {
		// "packaging (N ICs)" — digits and ASCII text, no escaping needed.
		b.scratch = append(b.scratch[:0], "\"packaging ("...)
		b.scratch = strconv.AppendInt(b.scratch, b.icN[i], 10)
		b.scratch = append(b.scratch, " ICs)\""...)
		if buf, ok = b.appendBreakdownItem(buf, first, "", b.scratch, "packaging", b.packG[i]); !ok {
			return buf, false
		}
		first = false
	}
	if first {
		buf = append(buf, ']')
	} else {
		buf = append(buf, "\n  ]"...)
	}

	if b.hasLC[i] {
		// PhaseReport.Total sums manufacturing, transport, use,
		// end-of-life in that order; the use phase is the operational
		// value bitwise (scaling wall energy by effectiveness 1 is exact).
		lcTotal := ((b.embG[i] + b.trG[i]) + b.opG[i]) + b.eolG[i]
		share := func(g float64) float64 {
			if lcTotal == 0 {
				return 0
			}
			return g / lcTotal
		}
		buf = append(buf, ",\n  \"life_cycle\": {\n    \"phases\": ["...)
		if buf, ok = b.appendPhase(buf, true, "manufacturing", b.embG[i], share(b.embG[i])); !ok {
			return buf, false
		}
		if buf, ok = b.appendPhase(buf, false, "transport", b.trG[i], share(b.trG[i])); !ok {
			return buf, false
		}
		if buf, ok = b.appendPhase(buf, false, "use", b.opG[i], share(b.opG[i])); !ok {
			return buf, false
		}
		if buf, ok = b.appendPhase(buf, false, "end-of-life", b.eolG[i], share(b.eolG[i])); !ok {
			return buf, false
		}
		buf = append(buf, "\n    ],\n    \"total_g\": "...)
		if buf, ok = b.memoFloat(buf, lcTotal); !ok {
			return buf, false
		}
		buf = append(buf, "\n  }"...)
	}

	buf = append(buf, "\n}\n"...)
	return buf, true
}
