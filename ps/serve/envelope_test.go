package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzRunEnvelope holds the one-pass envelope reader to encoding/json on
// arbitrary bodies. Where parseRunRequest accepts a body, json.Decoder
// must accept it too, into the same program, module and tenant and the
// same input names with byte-equal raw values; a body it declines goes
// to encoding/json itself. So readRunRequest must agree with a plain
// Decode on everything, error text included. Seeds under
// testdata/fuzz/FuzzRunEnvelope pin the cases the fast path must decline
// or get right: case-folded and escaped keys, duplicate fields, escaped
// strings, nulls, nested unknown fields, trailing bytes, truncation and
// non-object bodies.
func FuzzRunEnvelope(f *testing.F) {
	f.Add([]byte(`{"program":"smooth","module":"Smooth","tenant":"a","inputs":{"Xs":[0,1,4,9],"N":2}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var want runRequest
		werr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		got, err := readRunRequest(new(bytes.Buffer), bytes.NewReader(body))
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("error %v, encoding/json %v", err, werr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %+v, encoding/json %+v", got, want)
		}
	})
}

// TestRunEnvelopeFastPath pins that the bodies clients actually send —
// encoding/json's own output and hand-written JSON with whitespace and
// unknown fields — take the one-pass path, with inputs that alias the
// body instead of copies.
func TestRunEnvelopeFastPath(t *testing.T) {
	for _, body := range []string{
		string(runBody("team-a", "smooth", "Smooth", 0)),
		string(runBody("", "gauss_seidel", "Relaxation", 1)),
		`{}`,
		" {\n  \"program\": \"smooth\", \"module\": \"Smooth\", \"tenant\": \"tëam\",\n" +
			"  \"note\": {\"why\": [1, \"x\\n\", null, true]},\n" +
			"  \"inputs\": {\"Xs\": [0, 1, 4, 9, 16, 25, 36, 49], \"N\": 6}\n}\n",
	} {
		data := []byte(body)
		req, ok := parseRunRequest(data)
		if !ok {
			t.Errorf("declined canonical body %s", body)
			continue
		}
		for name, raw := range req.Inputs {
			aliased := false
			for i := range data {
				aliased = aliased || &data[i] == &raw[0]
			}
			if !aliased {
				t.Errorf("input %s is not a sub-slice of the body", name)
			}
		}
	}
}
