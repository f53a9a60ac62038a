package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// smallParams runs every workload at a scale a unit test can afford.
func smallParams(t *testing.T, trace bool) params {
	p := params{
		seed:     3,
		duration: 400 * time.Millisecond,
		warmup:   50 * time.Millisecond,
		trace:    trace,
		sessions: 20,
		clients:  2,
		setups:   2,
		samples:  2,
		probe:    3,
		gc: gcHeapParams{trees: 4, depth: 8, replaceEvery: 500, guardEvery: 4,
			holdSlots: 64, oldSlots: 64, keySlots: 32, pattern: 1 << 10},
	}
	if trace {
		p.spans = t.TempDir() + "/spans.jsonl"
	}
	return p
}

// TestWorkloadsSmoke runs each workload untraced and traced at a tiny
// scale. Each run ends with its correctness gate, so a pass means the
// gate saw correct replies, exact reclaims and a clean heap.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			p := smallParams(t, trace)
			var host hostRecord
			out, err := workloads[name](p, &host)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if out.attempted < 1 || out.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", name, trace, out.attempted, out.failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			m, err := out.metrics.render(defs)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !trace {
				for _, d := range endToEnd {
					if m[d.Name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, d.Name, m[d.Name].Value)
					}
				}
			} else {
				for _, metric := range []string{"latency_tail_ms", "latency2_tail_ms", "heap.pause_ms_per_s"} {
					if m[metric].Value <= 0 {
						t.Errorf("%s traced: %s = %v, want > 0", name, metric, m[metric].Value)
					}
				}
			}
		}
	}
}

func TestMailLedgerGate(t *testing.T) {
	l := &mailLedger{dest: map[int64]server.SessionID{}, got: map[int64]bool{}}
	seq := l.send(7)
	if err := l.receive(7, "#f"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		id   server.SessionID
		text string
	}{{8, "(m 1)"}, {7, "(m 99)"}, {7, "hello"}} {
		if err := l.receive(bad.id, bad.text); err == nil {
			t.Errorf("session %d accepted %q", bad.id, bad.text)
		}
	}
	if err := l.receive(7, "(m 1)"); err != nil || seq != 1 {
		t.Fatalf("receive of the sent datum: %v", err)
	}
	if err := l.receive(7, "(m 1)"); err == nil {
		t.Fatal("a datum was accepted twice")
	}
}

func TestReclaimGate(t *testing.T) {
	opened := map[server.SessionID]lifecycle{5: {ports: 2, resources: 1, list: 30}}
	good := server.ReclaimRecord{ID: 5, Ports: 2, Resources: 1}
	if _, err := checkReclaims([]server.ReclaimRecord{good}, opened); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []server.ReclaimRecord{
		{ID: 5, Ports: 1, Resources: 1},
		{ID: 5, Ports: 2, Resources: 1, LeakedResources: 1},
		{ID: 6, Ports: 2, Resources: 1},
	} {
		if _, err := checkReclaims([]server.ReclaimRecord{rec}, opened); err == nil {
			t.Errorf("record %+v passed the gate", rec)
		}
	}
}

// TestGCHeapGate checks that the gc-heap gate notices a guardian
// object that was dropped but never salvaged, and a table key that
// outlived its drop.
func TestGCHeapGate(t *testing.T) {
	p := smallParams(t, false)
	newRun := func() *gcRun {
		r, err := newGCRun(p.gc, gcHeapPattern(1, p.gc.pattern))
		if err != nil {
			t.Fatal(err)
		}
		r.phase(100*time.Millisecond, nil, nil)
		if err := r.verify(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := newRun()
	for id, s := range r.guards {
		if s == held {
			r.guards[id] = dropped // the mutator claims a drop the heap never saw
			break
		}
	}
	if err := r.verify(); err == nil || !strings.Contains(err.Error(), "not salvaged") {
		t.Errorf("verify after a false drop = %v", err)
	}
	r = newRun()
	for id, s := range r.keyState {
		if s == held {
			r.keyState[id] = dropped
			break
		}
	}
	if err := r.verify(); err == nil || !strings.Contains(err.Error(), "still in the guarded table") {
		t.Errorf("verify after a false key drop = %v", err)
	}
}
