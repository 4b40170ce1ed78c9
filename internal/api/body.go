package api

import (
	"errors"
	"io"
	"net/http"
	"os"
	"time"
)

// ReadBody reads r's whole body into buf and returns it: the one body reader
// of both daemons. A declared Content-Length sizes the buffer exactly and is
// refused before reading when it is over max; a chunked body grows the buffer
// until max. Until deadline (none when zero) the connection is held to it, so
// a client that stalls mid-body cannot keep the handler past it. A body over
// max is 413 body_too_large, a read cut off at the deadline 504
// deadline_exceeded, any other failed read 400 bad_request.
func ReadBody(w http.ResponseWriter, r *http.Request, buf []byte, max int64, deadline time.Time) ([]byte, error) {
	declared := r.ContentLength
	if declared == 0 {
		return buf, nil
	}
	if declared > max {
		return buf, bodyTooLarge(max)
	}
	if declared > int64(cap(buf)) {
		buf = make([]byte, 0, declared)
	}
	// http.ResponseController would wrap a refusal in a fresh error per
	// request; a writer this is mounted on either has the method or not.
	conn, _ := w.(interface{ SetReadDeadline(time.Time) error })
	bounded := !deadline.IsZero() && conn != nil && conn.SetReadDeadline(deadline) == nil
	for declared < 0 || int64(len(buf)) < declared {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		window := buf[len(buf):cap(buf)]
		if rest := declared - int64(len(buf)); declared >= 0 && int64(len(window)) > rest {
			window = window[:rest]
		}
		n, err := r.Body.Read(window)
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > max {
			return buf, bodyTooLarge(max)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			// The read deadline stays in force on a failed read: net/http
			// drains what is left of a body before it replies, and must not
			// wait for a stalled client either.
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return buf, Errorf(http.StatusGatewayTimeout, "deadline_exceeded", "read request body: %v", err)
			}
			return buf, Errorf(http.StatusBadRequest, "bad_request", "read request body: %v", err)
		}
	}
	if int64(len(buf)) < declared {
		return buf, Errorf(http.StatusBadRequest, "bad_request", "read request body: %v", io.ErrUnexpectedEOF)
	}
	if bounded {
		// The body is in: lift the deadline. net/http keeps reading the
		// connection to notice a client that went away, and a read deadline
		// firing there would cancel the request's context as "canceled" at
		// the instant its own deadline says "deadline exceeded".
		conn.SetReadDeadline(time.Time{})
	}
	return buf, nil
}

func bodyTooLarge(max int64) error {
	return Errorf(http.StatusRequestEntityTooLarge, "body_too_large", "request body exceeds %d bytes", max)
}
