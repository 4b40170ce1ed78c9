package specio

import (
	"bytes"
	"testing"
)

// FuzzSpecioRead drives arbitrary bytes through the JSON document reader.
// Read promises that a document it returns always validates, so any
// accepted input must survive Write+Read without a panic or a new error
// (that it also loads is core's FuzzLoadSpec). Seeds are honestly-exported
// documents plus some near-valid JSON so the fuzzer starts past the parser.
func FuzzSpecioRead(f *testing.F) {
	for _, src := range []string{meetingsSrc, listsSrc} {
		var buf bytes.Buffer
		if err := FromSpec(buildSpec(f, src)).Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"format":"funcdb/spec/v1"}`))
	f.Add([]byte(`{"format":"funcdb/spec/v1","alphabet":["a"],"seed_depth":-1}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := doc.Write(&buf); err != nil {
			t.Fatalf("accepted document does not re-serialize: %v", err)
		}
		if _, err := Read(&buf); err != nil {
			t.Fatalf("re-serialized document does not re-read: %v", err)
		}
	})
}
