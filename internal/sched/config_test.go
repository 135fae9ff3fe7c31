package sched

import (
	"encoding/json"
	"reflect"
	"testing"
)

func ptr[T any](v T) *T { return &v }

// The knob budget: five fields, each justified by an ablation row in
// DESIGN.md. Growing Config means growing that table first.
func TestConfigHasFiveKnobs(t *testing.T) {
	if n := reflect.TypeOf(Config{}).NumField(); n != 5 {
		t.Fatalf("sched.Config has %d fields, want 5", n)
	}
	if c, p := reflect.TypeOf(Config{}), reflect.TypeOf(Patch{}); c.NumField() != p.NumField() {
		t.Fatalf("Patch has %d fields, Config %d: every knob must be patchable", p.NumField(), c.NumField())
	}
}

func TestPatchApplyValidatesAtomically(t *testing.T) {
	base := Config{Coalesce: true, TotalNodes: 4}
	for name, p := range map[string]Patch{
		"negative nodes":   {Priorities: ptr(true), TotalNodes: ptr(-1)},
		"negative quantum": {Priorities: ptr(true), DRRQuantum: ptr(-2)},
		"unknown policy":   {Priorities: ptr(true), Preempt: ptr(PreemptPolicy(7))},
	} {
		if got, err := p.Apply(base); err == nil || got != base {
			t.Errorf("%s: Apply = %+v, %v; want the config untouched and an error", name, got, err)
		}
	}
	got, err := Patch{Priorities: ptr(true), Preempt: ptr(PreemptYoungest), DRRQuantum: ptr(0)}.Apply(base)
	want := Config{Coalesce: true, Priorities: true, TotalNodes: 4, Preempt: PreemptYoungest}
	if err != nil || got != want {
		t.Errorf("Apply = %+v, %v; want %+v", got, err, want)
	}

	s := New(&manualClock{}, base)
	if cfg, err := s.Update(Patch{Coalesce: ptr(false), TotalNodes: ptr(-1)}); err == nil || cfg != base || s.Config() != base {
		t.Errorf("refused Update changed the scheduler: %+v, %v", cfg, err)
	}
}

// String names each claimed field in declaration order; the daemon's
// sched-set log line prints it.
func TestPatchString(t *testing.T) {
	for _, c := range []struct {
		p    Patch
		want string
	}{
		{Patch{}, "sched{}"},
		{Patch{TotalNodes: ptr(6)}, "sched{nodes=6}"},
		{Patch{Coalesce: ptr(true), TotalNodes: ptr(6), Preempt: ptr(PreemptYoungest), DRRQuantum: ptr(4)},
			"sched{coalesce=true nodes=6 preempt=youngest quantum=4}"},
	} {
		if got := c.p.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

// The JSON forms are the wire format of sched-get and sched-set
// (netproto pins the exact bytes); here: names travel as names and an
// unknown one is refused where it is decoded.
func TestPreemptPolicyTravelsByName(t *testing.T) {
	raw, err := json.Marshal(Patch{Preempt: ptr(PreemptOff)})
	if err != nil || string(raw) != `{"preempt_policy":"off"}` {
		t.Fatalf("marshal = %s, %v", raw, err)
	}
	var p Patch
	if err := json.Unmarshal([]byte(`{"preempt_policy":"youngest"}`), &p); err != nil || *p.Preempt != PreemptYoungest {
		t.Fatalf("unmarshal youngest = %v, %v", p, err)
	}
	if err := json.Unmarshal([]byte(`{"preempt_policy":"cheapest"}`), &p); err == nil {
		t.Fatal(`"cheapest" decoded without error`)
	}
}
