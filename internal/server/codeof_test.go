package server

import (
	"errors"
	"fmt"
	"io/fs"
	"testing"
	"time"

	"simfs/internal/core"
	"simfs/internal/netproto"
)

// TestCodeOfMappings pins the error→code table: the known sentinels
// keep their codes, client-input mistakes (ErrInvalid) stay
// bad_request, and — the regression this guards — anything
// unclassified is the daemon's fault and maps to internal, never
// bad_request.
func TestCodeOfMappings(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want netproto.ErrCode
	}{
		{"quarantine", &core.QuarantineError{Attempts: 3, RetryAfter: time.Second}, netproto.CodeFailed},
		{"unknown context", fmt.Errorf("%w %q", core.ErrUnknownContext, "x"), netproto.CodeNoSuchContext},
		{"draining", fmt.Errorf("core: %w", core.ErrDraining), netproto.CodeBusy},
		{"busy", fmt.Errorf("core: %w: refs live", core.ErrBusy), netproto.CodeBusy},
		{"not produced", fmt.Errorf("%w: %q", core.ErrNotProduced, "f"), netproto.CodeNotProduced},
		{"invalid input", fmt.Errorf("core: %w: %q is outside the simulated timeline", core.ErrInvalid, "f"), netproto.CodeBadRequest},
		{"plain error", errors.New("something unexpected broke"), netproto.CodeInternal},
		{"fs fault", &fs.PathError{Op: "open", Path: "/x", Err: errors.New("io error")}, netproto.CodeInternal},
		{"wrapped fs fault", fmt.Errorf("storage: %w", &fs.PathError{Op: "write", Path: "/y", Err: errors.New("disk full")}), netproto.CodeInternal},
	}
	for _, tc := range cases {
		if got := codeOf(tc.err); got != tc.want {
			t.Errorf("%s: codeOf(%v) = %q, want %q", tc.name, tc.err, got, tc.want)
		}
	}
}

// The daemon's handler table and netproto's op table are keyed by the
// same rows: every op but the hello (consumed by netproto.Conn) has a
// handler, and no handler serves an op the table does not know.
func TestHandlersCoverOpTable(t *testing.T) {
	for _, spec := range netproto.Ops {
		if _, ok := handlers[spec.Name]; ok == (spec.Name == netproto.OpHello) {
			t.Errorf("op %q: handler present = %v", spec.Name, ok)
		}
	}
	for op := range handlers {
		if _, ok := netproto.LookupOp(op); !ok {
			t.Errorf("handler for %q, which is not in netproto.Ops", op)
		}
	}
}
