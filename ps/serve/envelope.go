package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
	"unicode/utf8"

	"repro/internal/jsonscan"
)

// runRequest is the /v1/run payload.
type runRequest struct {
	Program string                     `json:"program"`
	Module  string                     `json:"module"`
	Tenant  string                     `json:"tenant,omitempty"`
	Inputs  map[string]json.RawMessage `json:"inputs"`
}

// maxPooledBody caps the request buffers kept for reuse: a rare huge
// body is left to the collector rather than pinned in the pool.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// getBody takes a request buffer from the pool, grown ahead for a
// declared length the pool would keep.
func getBody(contentLength int64) *bytes.Buffer {
	buf := bodyPool.Get().(*bytes.Buffer)
	if contentLength > 0 && contentLength <= maxPooledBody {
		buf.Grow(int(contentLength) + bytes.MinRead)
	}
	return buf
}

// putBody returns a request buffer to the pool; nil is a no-op.
func putBody(buf *bytes.Buffer) {
	if buf != nil && buf.Cap() <= maxPooledBody {
		buf.Reset()
		bodyPool.Put(buf)
	}
}

// readRunRequest reads a /v1/run body into buf and decodes its envelope.
// A body in the canonical subset parseRunRequest accepts is walked once,
// and its inputs alias buf; any other body, and a body whose read failed,
// is decoded by encoding/json from the bytes read followed by the read
// error, which is what it saw when it read the body itself — so
// acceptance and error text are encoding/json's.
func readRunRequest(buf *bytes.Buffer, body io.Reader) (runRequest, error) {
	_, err := buf.ReadFrom(body)
	if err == nil {
		if req, ok := parseRunRequest(buf.Bytes()); ok {
			return req, nil
		}
	}
	var rest io.Reader = bytes.NewReader(buf.Bytes())
	if err != nil {
		rest = io.MultiReader(rest, failedRead{err})
	}
	var req runRequest
	err = json.NewDecoder(rest).Decode(&req)
	return req, err
}

// failedRead replays a body's read error after its bytes.
type failedRead struct{ err error }

func (f failedRead) Read([]byte) (int, error) { return 0, f.err }

// parseRunRequest decodes a body in one validating pass, with each input
// a sub-slice of data. It reports false, leaving the body to
// encoding/json, unless the body opens with an object whose decoding
// encoding/json would agree with field for field: every key exact (no
// escape, no upper case or non-ASCII byte, which it folds when matching
// field names), no field twice (it merges a second inputs into the
// first), program, module and tenant strings whose bytes are their
// values, and inputs an object. Bytes after the object are ignored, as
// json.Decoder.Decode ignores them.
func parseRunRequest(data []byte) (runRequest, bool) {
	var req runRequest
	s := jsonscan.Scanner{Data: data}
	s.Space()
	if !s.Consume('{') {
		return req, false
	}
	s.Space()
	if s.Consume('}') {
		return req, true
	}
	var seen uint8
	for {
		key, ok := memberKey(&s)
		if !ok || !foldFree(key) {
			return req, false
		}
		var bit uint8
		var field *string
		switch string(key) {
		case "program":
			bit, field = 1, &req.Program
		case "module":
			bit, field = 2, &req.Module
		case "tenant":
			bit, field = 4, &req.Tenant
		case "inputs":
			bit = 8
		}
		if seen&bit != 0 {
			return req, false
		}
		seen |= bit
		switch {
		case field != nil:
			v, ok := plainString(&s)
			if !ok {
				return req, false
			}
			*field = string(v)
		case bit != 0:
			if req.Inputs, ok = parseInputs(&s); !ok {
				return req, false
			}
		default:
			if s.Skip() != nil {
				return req, false
			}
		}
		s.Space()
		if s.Consume('}') {
			return req, true
		}
		if !s.Consume(',') {
			return req, false
		}
		s.Space()
	}
}

// parseInputs scans the inputs object into raw members that alias the
// body, each exactly the bytes of its value. A repeated name keeps its
// last value, as encoding/json's map decoding does.
func parseInputs(s *jsonscan.Scanner) (map[string]json.RawMessage, bool) {
	if !s.Consume('{') {
		return nil, false
	}
	inputs := make(map[string]json.RawMessage)
	s.Space()
	if s.Consume('}') {
		return inputs, true
	}
	for {
		key, ok := memberKey(s)
		if !ok {
			return nil, false
		}
		start := s.Pos
		if s.Skip() != nil {
			return nil, false
		}
		inputs[string(key)] = s.Data[start:s.Pos:s.Pos]
		s.Space()
		if s.Consume('}') {
			return inputs, true
		}
		if !s.Consume(',') {
			return nil, false
		}
		s.Space()
	}
}

// memberKey scans an object member's key and the colon after it.
func memberKey(s *jsonscan.Scanner) ([]byte, bool) {
	key, ok := plainString(s)
	s.Space()
	if !ok || !s.Consume(':') {
		return nil, false
	}
	s.Space()
	return key, true
}

// plainString scans a string whose bytes are its value: valid, with no
// escape and valid UTF-8 (encoding/json would rewrite invalid bytes).
func plainString(s *jsonscan.Scanner) ([]byte, bool) {
	if !s.Consume('"') {
		return nil, false
	}
	body, escaped, err := s.StringBytes()
	return body, err == nil && !escaped && utf8.Valid(body)
}

// foldFree reports whether a top-level key can match a field only
// exactly: it holds no upper-case or non-ASCII byte, so no case folding
// (which encoding/json applies to field names, Unicode included:
// "inputſ" matches inputs) turns it into another field's name.
func foldFree(key []byte) bool {
	for _, c := range key {
		if c >= utf8.RuneSelf || 'A' <= c && c <= 'Z' {
			return false
		}
	}
	return true
}
