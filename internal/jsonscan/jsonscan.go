// Package jsonscan is the lexical half of a one-pass JSON reader: a
// cursor over the input that recognizes whitespace, punctuation,
// literals, numbers and strings exactly as encoding/json's grammar does,
// and skips whole values while validating them. Callers build their own
// structure on top of it — ps decodes array arguments straight into
// typed storage, ps/serve splits a request envelope into raw members —
// and leave escape decoding to encoding/json.
package jsonscan

import (
	"encoding/json"
	"errors"
	"fmt"
	"unicode/utf8"
)

// maxDepth bounds how deeply Skip nests, and so its recursion. It is
// below encoding/json's own limit (10000 levels), so a caller that falls
// back to encoding/json when Skip fails gets encoding/json's verdict on
// anything deeper.
const maxDepth = 1000

// Scanner is a read position in JSON text.
type Scanner struct {
	Data []byte
	Pos  int
}

// Space skips JSON whitespace.
func (s *Scanner) Space() {
	for s.Pos < len(s.Data) {
		switch s.Data[s.Pos] {
		case ' ', '\t', '\n', '\r':
			s.Pos++
		default:
			return
		}
	}
}

// Consume consumes c if it is the next byte.
func (s *Scanner) Consume(c byte) bool {
	if s.Pos < len(s.Data) && s.Data[s.Pos] == c {
		s.Pos++
		return true
	}
	return false
}

// Literal consumes word if the input continues with it.
func (s *Scanner) Literal(word string) bool {
	if len(s.Data)-s.Pos >= len(word) && string(s.Data[s.Pos:s.Pos+len(word)]) == word {
		s.Pos += len(word)
		return true
	}
	return false
}

// Number scans a number in JSON's grammar, the only one strconv is
// handed, returning its literal and whether it is an integer (no
// fraction or exponent). lit is nil, and the position unchanged, when
// the input does not continue with a well-formed number.
func (s *Scanner) Number() (lit []byte, isInt bool) {
	d, i := s.Data, s.Pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i+1)
	default:
		return nil, false
	}
	isInt = true
	if i < len(d) && d[i] == '.' {
		isInt = false
		j := digits(d, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		isInt = false
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := digits(d, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	lit, s.Pos = d[s.Pos:i], i
	return lit, isInt
}

// digits returns the index of the first non-digit at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// StringBytes scans the rest of a string whose opening quote was
// consumed, validating it as encoding/json does — no control
// characters, only the escapes JSON defines — and returns the bytes
// between the quotes and whether they hold an escape. Invalid UTF-8 is
// not an error: encoding/json accepts it too, decoding it to U+FFFD.
func (s *Scanner) StringBytes() (body []byte, escaped bool, err error) {
	d := s.Data
	for i := s.Pos; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			body, s.Pos = d[s.Pos:i], i+1
			return body, escaped, nil
		case c < 0x20:
			s.Pos = i
			return nil, false, s.SyntaxError()
		case c == '\\':
			escaped = true
			if i++; i == len(d) {
				break
			}
			switch d[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if i++; i == len(d) || !isHex(d[i]) {
						s.Pos = i
						return nil, false, s.SyntaxError()
					}
				}
			default:
				s.Pos = i
				return nil, false, s.SyntaxError()
			}
		}
	}
	s.Pos = len(d)
	return nil, false, s.SyntaxError()
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// StringBody scans the rest of a string whose opening quote was
// consumed and returns its value, as encoding/json decodes it. Only a
// string holding an escape or invalid UTF-8 goes through encoding/json,
// to decode it.
func (s *Scanner) StringBody() (string, error) {
	start := s.Pos - 1
	body, escaped, err := s.StringBytes()
	if err != nil || !escaped && utf8.Valid(body) {
		return string(body), err
	}
	var str string
	err = json.Unmarshal(s.Data[start:s.Pos], &str)
	return str, err
}

// Skip scans one value of any kind, validating it as encoding/json
// does, and leaves the position just past it. The value starts at the
// position: leading whitespace is the caller's.
func (s *Scanner) Skip() error {
	return s.skip(0)
}

func (s *Scanner) skip(depth int) error {
	if s.Pos == len(s.Data) {
		return s.SyntaxError()
	}
	switch open := s.Data[s.Pos]; open {
	case '{', '[':
		if depth == maxDepth {
			return errors.New("exceeded max depth")
		}
		end := byte(']')
		if open == '{' {
			end = '}'
		}
		s.Pos++
		s.Space()
		if s.Consume(end) {
			return nil
		}
		for {
			if open == '{' {
				if !s.Consume('"') {
					return s.SyntaxError()
				}
				if _, _, err := s.StringBytes(); err != nil {
					return err
				}
				s.Space()
				if !s.Consume(':') {
					return s.SyntaxError()
				}
				s.Space()
			}
			if err := s.skip(depth + 1); err != nil {
				return err
			}
			s.Space()
			if s.Consume(end) {
				return nil
			}
			if !s.Consume(',') {
				return s.SyntaxError()
			}
			s.Space()
		}
	case '"':
		s.Pos++
		_, _, err := s.StringBytes()
		return err
	}
	if s.Literal("true") || s.Literal("false") || s.Literal("null") {
		return nil
	}
	if lit, _ := s.Number(); lit == nil {
		return s.SyntaxError()
	}
	return nil
}

// SyntaxError reports the byte at the read position.
func (s *Scanner) SyntaxError() error {
	if s.Pos >= len(s.Data) {
		return fmt.Errorf("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q at offset %d", s.Data[s.Pos], s.Pos)
}
