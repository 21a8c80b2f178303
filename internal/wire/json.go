package wire

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/stream"
)

// Decoder turns wire bytes into Batches without allocating in steady
// state: tuple storage comes from the stream arena, attribute names are
// interned in a per-decoder table (a fleet pushes the same few attrs
// forever), and the tokenizer works directly on the input bytes. Borrow
// one per request (or hold one per connection for ndjson streams) and
// Release it when done; a Decoder is not safe for concurrent use.
type Decoder struct {
	buf     *stream.TupleBuffer
	attrs   map[string]string // intern table: attr bytes → canonical string
	last    string            // the attr intern returned last: a batch repeats one
	scratch []byte            // unescape scratch for quoted strings
}

var decoderPool = sync.Pool{
	New: func() interface{} {
		return &Decoder{attrs: make(map[string]string, 4)}
	},
}

// BorrowDecoder returns a pooled decoder with empty scratch state.
func BorrowDecoder() *Decoder {
	d := decoderPool.Get().(*Decoder)
	d.buf = stream.BorrowTuples(0)
	return d
}

// Release returns the decoder (and its borrowed tuple storage) to the
// pools. Batches decoded through it must not be used afterwards. The
// intern table is retained — attr names recur across requests — but
// reset once it grows past plausible fleet vocabularies, so hostile
// high-cardinality attrs cannot pin memory.
func (d *Decoder) Release() {
	if d == nil {
		return
	}
	d.buf.Release()
	d.buf = nil
	if len(d.attrs) > 1024 {
		d.attrs = make(map[string]string, 4)
	}
	decoderPool.Put(d)
}

// intern canonicalizes an attr name, validating length and UTF-8 once per
// distinct name. A run of one attr costs a string compare per tuple; the map
// lookup keyed by string(b) behind it does not allocate; the string is
// materialized only on first sight.
func (d *Decoder) intern(b []byte) (string, error) {
	if string(b) == d.last {
		return d.last, nil
	}
	s, ok := d.attrs[string(b)]
	if !ok {
		if len(b) > MaxAttrLen || !utf8.Valid(b) {
			return "", ErrInvalidAttr
		}
		s = string(b)
		d.attrs[s] = s
	}
	d.last = s
	return s, nil
}

// DecodeJSON decodes one JSON batch object ({"attr","watermark",
// "observations":[…]}) from data. The returned Batch borrows the
// decoder's storage: valid until the next Decode* call or Release.
// Observations without an attr inherit the batch attr; without a sensor
// they get -1; Watermark is NaN when absent or null. A repeated
// "observations" key replaces the array before it, and null clears it, as
// encoding/json's slice decode does.
func (d *Decoder) DecodeJSON(data []byte) (Batch, error) {
	if len(data) > MaxFrameBytes {
		return Batch{}, ErrFrameTooLarge
	}
	d.buf.Tuples = d.buf.Tuples[:0]
	p := jparser{d: d, data: data}
	b := Batch{Watermark: math.NaN()}
	if err := p.parseBatch(&b); err != nil {
		return Batch{}, err
	}
	p.skipSpace()
	if p.off != len(p.data) {
		return Batch{}, p.errf("trailing data after batch object")
	}
	b.Tuples = d.buf.Tuples
	if b.Attr != "" {
		// The batch attr may follow the observations in the object, so the
		// default is applied after the fact.
		for i := range b.Tuples {
			if b.Tuples[i].Attr == "" {
				b.Tuples[i].Attr = b.Attr
			}
		}
	}
	return b, nil
}

// jparser is a cursor over one JSON batch. It recognizes exactly the
// batch wire shape plus arbitrary skippable JSON for unknown fields.
type jparser struct {
	d    *Decoder
	data []byte
	off  int
}

func (p *jparser) errf(msg string) error { return &SyntaxError{Off: p.off, Msg: msg} }

// errAt reports an error met at off by a loop that runs ahead of the cursor.
func (p *jparser) errAt(off int, msg string) error { return &SyntaxError{Off: off, Msg: msg} }

func (p *jparser) skipSpace() {
	if p.off < len(p.data) && p.data[p.off] > ' ' {
		return // compact bodies: nothing to skip, no loop to set up
	}
	for p.off < len(p.data) {
		switch p.data[p.off] {
		case ' ', '\t', '\n', '\r':
			p.off++
		default:
			return
		}
	}
}

// expect consumes c (after whitespace) or fails.
func (p *jparser) expect(c byte) error {
	p.skipSpace()
	if p.off >= len(p.data) || p.data[p.off] != c {
		return p.errf("expected " + string(c))
	}
	p.off++
	return nil
}

// peek returns the next non-space byte without consuming it (0 at EOF).
func (p *jparser) peek() byte {
	p.skipSpace()
	if p.off >= len(p.data) {
		return 0
	}
	return p.data[p.off]
}

// parseBatch parses the top-level batch object.
func (p *jparser) parseBatch(b *Batch) error {
	if err := p.expect('{'); err != nil {
		return err
	}
	if p.peek() == '}' {
		p.off++
		return nil
	}
	for {
		key, err := p.rawString()
		if err != nil {
			return err
		}
		if err := p.expect(':'); err != nil {
			return err
		}
		switch string(key) {
		case "attr":
			raw, err := p.rawString()
			if err != nil {
				return err
			}
			if b.Attr, err = p.d.intern(raw); err != nil {
				return err
			}
		case "watermark":
			if p.peek() == 'n' { // null
				if err := p.literal("null"); err != nil {
					return err
				}
				b.Watermark = math.NaN()
			} else if b.Watermark, err = p.number(); err != nil {
				return err
			}
		case "observations":
			p.d.buf.Tuples = p.d.buf.Tuples[:0]
			if p.peek() == 'n' { // null == absent
				if err := p.literal("null"); err != nil {
					return err
				}
			} else if err := p.parseObservations(); err != nil {
				return err
			}
		default:
			if err := p.skipValue(0); err != nil {
				return err
			}
		}
		switch p.peek() {
		case ',':
			p.off++
		case '}':
			p.off++
			return nil
		default:
			return p.errf("expected , or } in batch object")
		}
	}
}

// parseObservations parses the observations array straight into the
// decoder's borrowed tuple buffer. Each element is offered to
// compactObservation first; the general parseObservation reads the ones it
// declines.
func (p *jparser) parseObservations() error {
	if err := p.expect('['); err != nil {
		return err
	}
	if p.peek() == ']' {
		p.off++
		return nil
	}
	for {
		if !p.compactObservation() {
			if err := p.parseObservation(); err != nil {
				return err
			}
		}
		switch p.peek() {
		case ',':
			p.off++
		case ']':
			p.off++
			return nil
		default:
			return p.errf("expected , or ] in observations array")
		}
	}
}

// An observation key with its colon, as the little-endian word its bytes
// load as; keyMask4/keyMask5 keep a shorter key's compare from reaching past
// its colon, and "sensor": is the one key that needs a ninth byte.
const (
	keyT      = uint64('"') | 't'<<8 | '"'<<16 | ':'<<24
	keyX      = uint64('"') | 'x'<<8 | '"'<<16 | ':'<<24
	keyY      = uint64('"') | 'y'<<8 | '"'<<16 | ':'<<24
	keyID     = uint64('"') | 'i'<<8 | 'd'<<16 | '"'<<24 | ':'<<32
	keyAttr   = uint64('"') | 'a'<<8 | 't'<<16 | 't'<<24 | 'r'<<32 | '"'<<40 | ':'<<48 | '"'<<56
	keyValue  = uint64('"') | 'v'<<8 | 'a'<<16 | 'l'<<24 | 'u'<<32 | 'e'<<40 | '"'<<48 | ':'<<56
	keySensor = uint64('"') | 's'<<8 | 'e'<<16 | 'n'<<24 | 's'<<32 | 'o'<<40 | 'r'<<48 | '"'<<56
	keyMask4  = 1<<32 - 1
	keyMask5  = 1<<40 - 1
)

// compactObservation reads the observation object at the cursor in one
// straight-line pass when it is in the compact subset producers write:
// {"key":value,…} with no whitespace, only the seven known keys
// (any order, unescaped; a repeat overwrites, as in parseObservation), id
// and sensor as 1–18 digits (sensor with an optional '-'), t/x/y/value as
// -?digits(.digits)? of at most 15 digits, and an attr with no escape or
// control byte. It appends the tuple, moves the cursor past the '}' and
// reports true; on anything else — including a value cut off by the end of
// the body — it reports false with the cursor where it was, and
// parseObservation reads the element from its '{'. So it never accepts bytes
// parseObservation refuses, every error comes from the general parser at its
// own offset, and for the bytes it accepts it builds parseObservation's
// tuple: a float's ≤ 15-digit mantissa is below 2⁵² and its exponent within
// −15, so float64(mant) / 10^k is number's exact path, bit for bit
// (FuzzCompactObservation holds the two to that).
func (p *jparser) compactObservation() bool {
	data, i := p.data, p.off
	if i >= len(data) || data[i] != '{' {
		return false
	}
	tp := stream.Tuple{Sensor: -1}
	for {
		i++ // past '{' or ','
		if len(data)-i < 8 {
			return false
		}
		var f *float64
		switch w := binary.LittleEndian.Uint64(data[i:]); {
		case w&keyMask4 == keyT:
			f, i = &tp.T, i+4
		case w&keyMask4 == keyX:
			f, i = &tp.X, i+4
		case w&keyMask4 == keyY:
			f, i = &tp.Y, i+4
		case w == keyValue:
			f, i = &tp.Value, i+8
		case w&keyMask5 == keyID:
			i += 5
			n, v := digitRun(data, i, 18)
			if n == 0 || n > 18 {
				return false
			}
			tp.ID, i = v, i+n
		case w == keyAttr:
			i += 8
			start := i
			for ; i < len(data) && data[i] != '"'; i++ {
				if data[i] == '\\' || data[i] < 0x20 {
					return false
				}
			}
			if i == len(data) {
				return false
			}
			attr, err := p.d.intern(data[start:i])
			if err != nil {
				return false
			}
			tp.Attr, i = attr, i+1
		case w == keySensor && len(data)-i > 8 && data[i+8] == ':':
			i += 9
			neg := i < len(data) && data[i] == '-'
			if neg {
				i++
			}
			n, v := digitRun(data, i, 18)
			if n == 0 || n > 18 {
				return false
			}
			tp.Sensor, i = int(v), i+n
			if neg {
				tp.Sensor = -tp.Sensor
			}
		default:
			return false
		}
		if f != nil {
			neg := i < len(data) && data[i] == '-'
			if neg {
				i++
			}
			mant, k, n := decimal(data, i)
			if n == 0 {
				return false
			}
			x := float64(mant) / pow10[k]
			if neg {
				x = -x
			}
			*f, i = x, i+n
		}
		if i >= len(data) {
			return false
		}
		switch data[i] {
		case ',':
		case '}':
			p.d.buf.Tuples = append(p.d.buf.Tuples, tp)
			p.off = i + 1
			return true
		default:
			return false
		}
	}
}

// parseObservation parses one observation object and appends its tuple.
func (p *jparser) parseObservation() error {
	if err := p.expect('{'); err != nil {
		return err
	}
	tp := stream.Tuple{Sensor: -1}
	if p.peek() == '}' {
		p.off++
		p.d.buf.Tuples = append(p.d.buf.Tuples, tp)
		return nil
	}
	for {
		key, err := p.obsKey()
		if err != nil {
			return err
		}
		if err := p.expect(':'); err != nil {
			return err
		}
		switch key {
		case 'i':
			if tp.ID, err = p.uint(); err != nil {
				return err
			}
		case 'a':
			raw, err := p.rawString()
			if err != nil {
				return err
			}
			if tp.Attr, err = p.d.intern(raw); err != nil {
				return err
			}
		case 't':
			if tp.T, err = p.number(); err != nil {
				return err
			}
		case 'x':
			if tp.X, err = p.number(); err != nil {
				return err
			}
		case 'y':
			if tp.Y, err = p.number(); err != nil {
				return err
			}
		case 'v':
			if tp.Value, err = p.number(); err != nil {
				return err
			}
		case 's':
			if p.peek() == 'n' { // null == absent
				if err := p.literal("null"); err != nil {
					return err
				}
			} else if tp.Sensor, err = p.int(); err != nil {
				return err
			}
		default:
			if err := p.skipValue(0); err != nil {
				return err
			}
		}
		switch p.peek() {
		case ',':
			p.off++
		case '}':
			p.off++
			p.d.buf.Tuples = append(p.d.buf.Tuples, tp)
			return nil
		default:
			return p.errf("expected , or } in observation object")
		}
	}
}

// obsKey consumes an observation's key and names it by its first byte — 'i'd,
// 'a'ttr, 't', 'x', 'y', 'v'alue, 's'ensor — or 0 for a field to skip. The
// byte after the opening quote selects the one name that could follow and a
// single compare through the closing quote confirms it, so the seven known
// keys are never scanned. Anything else (an unknown field, a known name
// spelled with escapes) is read as the string it is and then named.
func (p *jparser) obsKey() (byte, error) {
	p.skipSpace()
	if rest := p.data[p.off:]; len(rest) > 1 && rest[0] == '"' {
		name := ""
		switch rest[1] {
		case 'i':
			name = `id"`
		case 'a':
			name = `attr"`
		case 't':
			name = `t"`
		case 'x':
			name = `x"`
		case 'y':
			name = `y"`
		case 'v':
			name = `value"`
		case 's':
			name = `sensor"`
		}
		if name != "" && len(rest) > len(name) && string(rest[1:1+len(name)]) == name {
			p.off += 1 + len(name)
			return rest[1], nil
		}
	}
	key, err := p.rawString()
	if err != nil {
		return 0, err
	}
	switch string(key) {
	case "id", "attr", "t", "x", "y", "value", "sensor":
		return key[0], nil
	}
	return 0, nil
}

// literal consumes an exact keyword (true/false/null).
func (p *jparser) literal(lit string) error {
	p.skipSpace()
	if p.off+len(lit) > len(p.data) || string(p.data[p.off:p.off+len(lit)]) != lit {
		return p.errf("expected " + lit)
	}
	p.off += len(lit)
	return nil
}

// rawString parses a JSON string and returns its decoded bytes. Strings
// without escapes — every key and nearly every attr — are returned as a
// subslice of the input; escaped ones are unescaped into the decoder's
// scratch buffer. The returned slice is valid until the next rawString
// call.
func (p *jparser) rawString() ([]byte, error) {
	if err := p.expect('"'); err != nil {
		return nil, err
	}
	start := p.off
	for p.off < len(p.data) {
		switch c := p.data[p.off]; {
		case c == '"':
			s := p.data[start:p.off]
			p.off++
			return s, nil
		case c == '\\':
			return p.unescapeString(start)
		case c < 0x20:
			return nil, p.errf("control character in string")
		default:
			p.off++
		}
	}
	return nil, p.errf("unterminated string")
}

// unescapeString finishes a string that contains escapes, decoding into
// the scratch buffer. p.off points at the first backslash.
func (p *jparser) unescapeString(start int) ([]byte, error) {
	out := append(p.d.scratch[:0], p.data[start:p.off]...)
	for p.off < len(p.data) {
		c := p.data[p.off]
		switch {
		case c == '"':
			p.off++
			p.d.scratch = out
			return out, nil
		case c == '\\':
			p.off++
			if p.off >= len(p.data) {
				return nil, p.errf("unterminated escape")
			}
			switch e := p.data[p.off]; e {
			case '"', '\\', '/':
				out = append(out, e)
				p.off++
			case 'b':
				out = append(out, '\b')
				p.off++
			case 'f':
				out = append(out, '\f')
				p.off++
			case 'n':
				out = append(out, '\n')
				p.off++
			case 'r':
				out = append(out, '\r')
				p.off++
			case 't':
				out = append(out, '\t')
				p.off++
			case 'u':
				r, err := p.hexRune()
				if err != nil {
					return nil, err
				}
				if utf16IsHighSurrogate(r) && p.off+1 < len(p.data) &&
					p.data[p.off] == '\\' && p.data[p.off+1] == 'u' {
					p.off += 2
					r2, err := p.hexRune()
					if err != nil {
						return nil, err
					}
					if utf16IsLowSurrogate(r2) {
						r = 0x10000 + (r-0xD800)<<10 + (r2 - 0xDC00)
					} else {
						out = utf8.AppendRune(out, utf8.RuneError)
						r = r2
					}
				}
				if utf16IsHighSurrogate(r) || utf16IsLowSurrogate(r) {
					r = utf8.RuneError
				}
				out = utf8.AppendRune(out, r)
			default:
				return nil, p.errf("invalid escape")
			}
		case c < 0x20:
			return nil, p.errf("control character in string")
		default:
			out = append(out, c)
			p.off++
		}
	}
	return nil, p.errf("unterminated string")
}

// hexRune parses the 4 hex digits of a \u escape; p.off points past "u".
func (p *jparser) hexRune() (rune, error) {
	p.off++ // the 'u'
	if p.off+4 > len(p.data) {
		return 0, p.errf("truncated \\u escape")
	}
	var r rune
	for i := 0; i < 4; i++ {
		c := p.data[p.off+i]
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 | rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			r = r<<4 | rune(c-'A'+10)
		default:
			return 0, p.errf("invalid \\u escape")
		}
	}
	p.off += 4
	return r, nil
}

func utf16IsHighSurrogate(r rune) bool { return r >= 0xD800 && r < 0xDC00 }
func utf16IsLowSurrogate(r rune) bool  { return r >= 0xDC00 && r < 0xE000 }

// pow10 holds the exactly representable powers of ten (10^0 … 10^22).
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// pow10u holds the powers of ten a digit run of up to 14 digits is scaled by.
var pow10u = [...]uint64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14,
}

// digitWord loads the 8 bytes at data[i:] xored with '0', which maps a digit
// to 0–9, and marks bit 7 of each byte that is not a digit: one whose xor set
// bit 7, or whose low 7 bits plus 0x76 reach it (the masked add cannot carry
// into the next byte). The first non-digit is at TrailingZeros64(nd)/8.
func digitWord(data []byte, i int) (t, nd uint64) {
	t = binary.LittleEndian.Uint64(data[i:]) ^ 0x3030303030303030
	return t, (t&0x7f7f7f7f7f7f7f7f + 0x7676767676767676 | t) & 0x8080808080808080
}

// digitRun counts the decimal digits at data[i:] and returns that count with
// their value: a word at a time while 9 or more bytes remain (a run that
// fills a word still needs the byte after it), a byte at a time after that.
// A run longer than limit (at most 18, so the value cannot wrap) returns a
// count above limit and no value.
func digitRun(data []byte, i, limit int) (n int, v uint64) {
	for len(data)-i >= 9 {
		t, nd := digitWord(data, i)
		k := bits.TrailingZeros64(nd) >> 3
		if n += k; n > limit {
			return n, 0
		}
		v = v*pow10u[k] + eightDigits(t<<(64-8*k))
		if k < 8 {
			return n, v
		}
		i += 8
	}
	for ; i < len(data) && data[i]-'0' < 10; i++ {
		if n++; n > limit {
			return n, 0
		}
		v = v*10 + uint64(data[i]-'0')
	}
	return n, v
}

// decimal reads digits(.digits)? of at most 15 digits at data[i:] and
// returns its mantissa, its count of fraction digits and its length, or n = 0
// when the bytes there are not such a token. When the token and the byte
// after it fit in the word at data[i:] — a short decimal such as a
// millisecond time or a centi-unit reading — one load finds both
// non-digits, the dot's byte is cut out so the digits sit side by side, and
// one eightDigits values them; a longer token is read as digit runs.
func decimal(data []byte, i int) (mant uint64, k, n int) {
	if len(data)-i >= 8 {
		t, nd := digitWord(data, i)
		switch d := bits.TrailingZeros64(nd) >> 3; {
		case d == 0:
			return 0, 0, 0
		case d == 8:
		case data[i+d] != '.':
			return eightDigits(t << (64 - 8*d)), 0, d
		default:
			if e := bits.TrailingZeros64(nd&(nd-1)) >> 3; e > d+1 && e < 8 {
				t = t&(1<<(8*d)-1) | t>>(8*(d+1))<<(8*d)
				return eightDigits(t << (64 - 8*(e-1))), e - d - 1, e
			}
		}
	}
	n, mant = digitRun(data, i, 15)
	if n == 0 || n > 15 {
		return 0, 0, 0
	}
	if i+n >= len(data) || data[i+n] != '.' {
		return mant, 0, n
	}
	k, frac := digitRun(data, i+n+1, 15-n)
	if k == 0 || k > 15-n {
		return 0, 0, 0
	}
	return mant*pow10u[k] + frac, k, n + 1 + k
}

// eightDigits values a word of eight digit bytes, each already 0–9 and the
// first (most significant) in the low byte: adjacent pairs, then pairs of
// pairs, folded by multiplies whose partial products land in disjoint bits.
// Leading zero bytes are leading zeros.
func eightDigits(t uint64) uint64 {
	t = t*10 + t>>8
	return (t&0x000000ff000000ff*(100+1000000<<32) + t>>16&0x000000ff000000ff*(1+10000<<32)) >> 32
}

// number parses a JSON number. The fast path — a mantissa below 2⁵²
// scaled by a power of ten within ±22 — is computed with one exact IEEE
// multiply/divide, the same shortcut strconv takes, so results are
// bit-identical to strconv.ParseFloat; anything rarer falls back to
// strconv on the token's bytes.
func (p *jparser) number() (float64, error) {
	p.skipSpace()
	// The digit loops run on locals; the cursor is written back once the
	// token's end is known (errors report the byte they stopped at).
	data, i := p.data, p.off
	start := i
	neg := false
	if i < len(data) && data[i] == '-' {
		neg = true
		i++
	}
	var mant uint64
	exact := true // mantissa fits and no exotic exponent
	digits := i
	for ; i < len(data) && data[i] >= '0' && data[i] <= '9'; i++ {
		if mant >= 1<<52/10+1 {
			exact = false
		} else {
			mant = mant*10 + uint64(data[i]-'0')
		}
	}
	if i == digits {
		return 0, p.errAt(i, "invalid number")
	}
	exp10 := 0
	if i < len(data) && data[i] == '.' {
		i++
		digits = i
		for ; i < len(data) && data[i] >= '0' && data[i] <= '9'; i++ {
			if mant >= 1<<52/10+1 {
				exact = false
			} else {
				mant = mant*10 + uint64(data[i]-'0')
				exp10--
			}
		}
		if i == digits {
			return 0, p.errAt(i, "invalid number")
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		eneg := false
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			eneg = data[i] == '-'
			i++
		}
		ev := 0
		digits = i
		for ; i < len(data) && data[i] >= '0' && data[i] <= '9'; i++ {
			if ev < 10000 {
				ev = ev*10 + int(data[i]-'0')
			}
		}
		if i == digits {
			return 0, p.errAt(i, "invalid number")
		}
		if eneg {
			ev = -ev
		}
		exp10 += ev
	}
	p.off = i
	if exact && mant>>52 == 0 && exp10 >= -22 && exp10 <= 22 {
		f := float64(mant)
		if exp10 > 0 {
			f *= pow10[exp10]
		} else if exp10 < 0 {
			f /= pow10[-exp10]
		}
		if neg {
			f = -f
		}
		return f, nil
	}
	f, err := strconv.ParseFloat(string(data[start:i]), 64)
	if err != nil {
		return 0, p.errf("invalid number")
	}
	return f, nil
}

// uint parses a non-negative integer (tuple IDs). Fractions, exponents
// and values past 2⁶⁴−1 are rejected: an ID is an identifier, not a
// measurement, and rounding one silently would corrupt replay identity.
func (p *jparser) uint() (uint64, error) {
	p.skipSpace()
	return p.digits(math.MaxUint64, "id overflows uint64", "invalid id (must be a non-negative integer)")
}

// int parses a signed integer (sensor indices) under uint's rules: the
// binary frame carries an int64, and a fraction, an exponent or a value
// outside int64 has no sensor it could mean.
func (p *jparser) int() (int, error) {
	p.skipSpace()
	neg := p.off < len(p.data) && p.data[p.off] == '-'
	limit := uint64(math.MaxInt64)
	if neg {
		p.off++
		limit++ // −2⁶³
	}
	v, err := p.digits(limit, "sensor overflows int64", "invalid sensor (must be an integer)")
	if neg {
		return int(-v), err // −2⁶³ wraps to itself
	}
	return int(v), err
}

// digits parses a run of decimal digits no greater than limit and refuses a
// fraction or exponent after it.
func (p *jparser) digits(limit uint64, overflow, invalid string) (uint64, error) {
	data, i := p.data, p.off
	var v uint64
	for ; i < len(data) && data[i] >= '0' && data[i] <= '9'; i++ {
		d := uint64(data[i] - '0')
		if v > (limit-d)/10 {
			return 0, p.errAt(i, overflow)
		}
		v = v*10 + d
	}
	if i == p.off || i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E') {
		return 0, p.errAt(i, invalid)
	}
	p.off = i
	return v, nil
}

// maxSkipDepth bounds nesting inside skipped unknown values so hostile
// deeply nested bodies cannot exhaust the stack.
const maxSkipDepth = 64

// skipValue consumes one JSON value of any shape (unknown fields).
func (p *jparser) skipValue(depth int) error {
	if depth > maxSkipDepth {
		return p.errf("value nested too deeply")
	}
	switch c := p.peek(); {
	case c == '"':
		_, err := p.rawString()
		return err
	case c == '{':
		p.off++
		if p.peek() == '}' {
			p.off++
			return nil
		}
		for {
			if _, err := p.rawString(); err != nil {
				return err
			}
			if err := p.expect(':'); err != nil {
				return err
			}
			if err := p.skipValue(depth + 1); err != nil {
				return err
			}
			switch p.peek() {
			case ',':
				p.off++
			case '}':
				p.off++
				return nil
			default:
				return p.errf("expected , or } in object")
			}
		}
	case c == '[':
		p.off++
		if p.peek() == ']' {
			p.off++
			return nil
		}
		for {
			if err := p.skipValue(depth + 1); err != nil {
				return err
			}
			switch p.peek() {
			case ',':
				p.off++
			case ']':
				p.off++
				return nil
			default:
				return p.errf("expected , or ] in array")
			}
		}
	case c == 't':
		return p.literal("true")
	case c == 'f':
		return p.literal("false")
	case c == 'n':
		return p.literal("null")
	case c == '-' || (c >= '0' && c <= '9'):
		_, err := p.number()
		return err
	default:
		return p.errf("unexpected value")
	}
}
