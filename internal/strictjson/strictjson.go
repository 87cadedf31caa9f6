// Package strictjson reads JSON spelled the way encoding/json's Marshal
// writes it, in one pass and without reflection. It is the shared
// scanner behind the canonical readers of workload documents
// (internal/workload) and request bodies (internal/serve).
//
// The grammar is deliberately narrow: no whitespace inside a value,
// object keys in a fixed order (each at most once; Object lets any be
// absent, Record needs them all),
// strings of bytes 0x20–0x7f other than '"' and '\', and integers
// matching 0|-?[1-9][0-9]{0,17}, which always fit an int64. Only
// whitespace may follow the top-level value. A reader built on the
// Scanner never reports an error: at the first byte outside the grammar
// it declines, and its caller decodes the same bytes with encoding/json,
// which accepts every spelling the Scanner does and gives it the same
// value.
package strictjson

// maxDigits bounds an integer's digits: every 18-digit integer fits an
// int64, so no overflow check is needed.
const maxDigits = 18

// Scanner reads one document. Every method reports false at the first
// byte outside the grammar and leaves the position unspecified; the
// caller then gives up on the document.
type Scanner struct {
	buf []byte
	pos int
}

// New returns a Scanner at the start of b.
func New(b []byte) *Scanner { return &Scanner{buf: b} }

// Pos returns the offset of the next unread byte.
func (s *Scanner) Pos() int { return s.pos }

// Since returns the bytes read from offset from up to the current
// position. They alias the input.
func (s *Scanner) Since(from int) []byte { return s.buf[from:s.pos] }

// next consumes c if it is the next byte.
func (s *Scanner) next(c byte) bool {
	if s.pos < len(s.buf) && s.buf[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// literal consumes lit if the input continues with it.
func (s *Scanner) literal(lit string) bool {
	if len(s.buf)-s.pos < len(lit) || string(s.buf[s.pos:s.pos+len(lit)]) != lit {
		return false
	}
	s.pos += len(lit)
	return true
}

// Object reads an object whose keys are drawn from keys in that order,
// each at most once, calling field(i) to read the value of keys[i].
// A key out of order, repeated, unknown or spelled in another case
// declines, as does a field that returns false.
func (s *Scanner) Object(keys []string, field func(i int) bool) bool {
	_, ok := s.object(keys, field)
	return ok
}

// Record is Object for an object that holds every key of keys.
func (s *Scanner) Record(keys []string, field func(i int) bool) bool {
	n, ok := s.object(keys, field)
	return ok && n == len(keys)
}

// object reads an object for Object and Record and returns the number
// of fields it read.
func (s *Scanner) object(keys []string, field func(i int) bool) (int, bool) {
	if !s.next('{') {
		return 0, false
	}
	if s.next('}') {
		return 0, true
	}
	n, k := 0, 0
	for {
		name, ok := s.Text()
		if !ok || !s.next(':') {
			return n, false
		}
		for k < len(keys) && keys[k] != string(name) {
			k++
		}
		if k == len(keys) || !field(k) {
			return n, false
		}
		n++
		k++
		if s.next('}') {
			return n, true
		}
		if !s.next(',') {
			return n, false
		}
	}
}

// Array reads an array, calling elem to read each element.
func (s *Scanner) Array(elem func() bool) bool {
	if !s.next('[') {
		return false
	}
	if s.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if s.next(']') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

// Text reads a string and returns its bytes between the quotes, which
// alias the input: the grammar admits no escape, so they are also the
// decoded value.
func (s *Scanner) Text() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	rest := s.buf[s.pos:]
	for i, c := range rest {
		if c == '"' {
			s.pos += i + 1
			return rest[:i], true
		}
		if c < 0x20 || c >= 0x80 || c == '\\' {
			return nil, false
		}
	}
	return nil, false
}

// String reads a string into a copy of its bytes.
func (s *Scanner) String() (string, bool) {
	b, ok := s.Text()
	return string(b), ok
}

// Int64 reads an integer. A fraction or exponent is left unread, so the
// caller's next expected byte declines it.
func (s *Scanner) Int64() (int64, bool) {
	if s.next('0') {
		return 0, true
	}
	neg := s.next('-')
	rest := s.buf[s.pos:]
	if len(rest) == 0 || rest[0] < '1' || rest[0] > '9' {
		return 0, false
	}
	var n int64
	i := 0
	for ; i < len(rest) && i < maxDigits && '0' <= rest[i] && rest[i] <= '9'; i++ {
		n = n*10 + int64(rest[i]-'0')
	}
	s.pos += i
	if neg {
		n = -n
	}
	return n, true
}

// Int reads an integer that fits an int.
func (s *Scanner) Int() (int, bool) {
	n, ok := s.Int64()
	return int(n), ok && int64(int(n)) == n
}

// Bool reads true or false.
func (s *Scanner) Bool() (bool, bool) {
	switch {
	case s.literal("true"):
		return true, true
	case s.literal("false"):
		return false, true
	}
	return false, false
}

// End reports whether only JSON whitespace follows the position.
func (s *Scanner) End() bool {
	for _, c := range s.buf[s.pos:] {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return true
}
