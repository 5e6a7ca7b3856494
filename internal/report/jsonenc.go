// Scalar JSON encoders. Every producer of the canonical result document
// that does not go through Encode — the columnar engine's hand-rolled
// document writer, the script envelope encoder — formats its floats and
// strings here, so they stay byte-identical to encoding/json by
// construction.

package report

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendJSONFloat appends a float the way encoding/json does: shortest
// round-trip form, 'f' format except for very small/large magnitudes,
// with the exponent's leading zero stripped ("e-09" → "e-9"). Reports
// false for non-finite values, which the stdlib encoder errors on.
func AppendJSONFloat(buf []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return buf, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf, true
}

const hexDigits = "0123456789abcdef"

// AppendJSONString appends a quoted string the way encoding/json does
// with HTML escaping on (the Encoder and Marshal default): ASCII other
// than control chars, quote, backslash, and <>& passes through; the short
// escapes cover \b \f \n \r \t; other control chars become \u00XX;
// invalid UTF-8 bytes become U+FFFD; U+2028/U+2029 are escaped for JS
// embedding.
func AppendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch c {
			case '\\', '"':
				buf = append(buf, '\\', c)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	buf = append(buf, '"')
	return buf
}
