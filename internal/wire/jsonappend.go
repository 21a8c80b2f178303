package wire

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// The append-style JSON value encoders every hand-rendered response is built
// from (ingest acks, result records): byte-identical to encoding/json, with
// no encoder, reflection or allocation beyond dst growth.

// AppendJSONFloat renders a finite float the way encoding/json does:
// shortest form, 'f' notation except for magnitudes JS would print
// exponentially, with the exponent's leading zero trimmed. JSON has no
// NaN or ±Inf; the caller rejects or replaces those first.
//
// Most numbers on this wire are short decimals — microdegree positions,
// millisecond times, centi-unit readings that arrived as text — and for those
// the shortest-digit search is skipped (the mirror of jparser.number's
// exact-mantissa shortcut). For abs < 2³¹ take m = round(abs·10⁶). If
// float64(m)/10⁶ == abs — m < 2⁵³ and 10⁶ are exact, so that one correctly
// rounded divide is what strconv.ParseFloat computes for the decimal m·10⁻⁶ —
// the decimal round-trips. It is also the shortest that does: every decimal
// with ≤ 6 places is a multiple of 10⁻⁶, abs < 2³¹ makes an ulp at most 2⁻²²
// < 10⁻⁶, so abs's rounding interval (under an ulp wide) holds no second
// multiple, and a decimal of fewer digits in it would be one. With trailing
// zeros dropped it is therefore strconv's shortest 'f' rendering, byte for
// byte. A candidate that fails the compare (more than six places, or a
// nonzero value below 10⁻⁶, where m/10⁶ ≥ 10⁻⁶ > abs or m = 0) costs one
// multiply, one divide and one compare before strconv renders it.
func AppendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs < 1<<31 {
		if m := uint64(abs*1e6 + 0.5); float64(m)/1e6 == abs {
			if math.Signbit(f) { // −0 included, as strconv renders it
				dst = append(dst, '-')
			}
			return appendMicros(dst, m)
		}
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendMicros renders m·10⁻⁶ (m < 2⁵¹) in 'f' notation without trailing
// zeros: the integer part, then up to six places.
func appendMicros(dst []byte, m uint64) []byte {
	var buf [24]byte
	i := len(buf)
	ip, fp := m/1e6, uint32(m%1e6)
	if fp != 0 {
		places := 6
		for fp%10 == 0 {
			fp /= 10
			places--
		}
		for ; places > 0; places-- {
			i--
			buf[i] = byte('0' + fp%10)
			fp /= 10
		}
		i--
		buf[i] = '.'
	}
	for ip >= 10 {
		i--
		buf[i] = byte('0' + ip%10)
		ip /= 10
	}
	i--
	buf[i] = byte('0' + ip)
	return append(dst, buf[i:]...)
}

const hexDigits = "0123456789abcdef"

// AppendJSONString renders s as a JSON string with encoding/json's exact
// escaping rules (HTML-safe escapes included), so hand-rendered output stays
// byte-identical to encoder output for any text.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		// U+2028/U+2029 break JS string literals; encoding/json escapes them.
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
