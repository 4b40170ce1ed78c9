package api

import (
	"encoding/json"
	"net/http"
)

// remoteErrorParts is the envelope decoder repl.RemoteClient carried before
// DecodeError replaced it (and four narrower ones), kept verbatim as the
// reference FuzzReadError compares against.
func remoteErrorParts(body []byte, status int) (code, msg string) {
	var e struct {
		Error json.RawMessage `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && len(e.Error) > 0 {
		var nested struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		}
		if json.Unmarshal(e.Error, &nested) == nil && nested.Message != "" {
			return nested.Code, nested.Message
		}
		var flat string
		if json.Unmarshal(e.Error, &flat) == nil && flat != "" {
			return "", flat
		}
	}
	return "", http.StatusText(status)
}
