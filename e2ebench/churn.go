package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/server"
)

// churn: closed-loop clients each repeat one connection lifecycle on
// top of the idle standing population: Register a session whose init
// request opens guarded ports, allocates guarded external resources
// and builds a small list; wait for the reply; Disconnect; wait until
// the session is reclaimed; start over.

// lifecycle is one generated churn connection.
type lifecycle struct {
	ports, resources, list int
}

func (l lifecycle) script() string {
	return fmt.Sprintf(`
(define ports (let loop ((i 0) (acc '())) (if (< i %d) (loop (+ i 1) (cons (open-session-port "conn.tmp") acc)) acc)))
(define res (let loop ((i 0) (acc '())) (if (< i %d) (loop (+ i 1) (cons (session-alloc 0 64) acc)) acc)))
(define data (let loop ((i 0) (acc '())) (if (< i %d) (loop (+ i 1) (cons i acc)) acc)))
(length data)`, l.ports, l.resources, l.list)
}

func newLifecycle(rng *rand.Rand) lifecycle {
	return lifecycle{ports: 1 + rng.Intn(3), resources: 1 + rng.Intn(3), list: 20 + rng.Intn(41)}
}

// churnPhase is what the clients measured in one phase.
type churnPhase struct {
	connect, reclaim []float64       // ms
	register, discon []float64       // µs, traced only
	at               []time.Duration // completion times since the phase began
	opened           map[server.SessionID]lifecycle
	done, failed     int
	elapsed          time.Duration
}

// awaitReclaimed returns once the server has removed id, which it does
// in the same step that records the session's ReclaimRecord. It polls
// with short sleeps, leaving the processors to the server meanwhile.
func awaitReclaimed(srv *server.Server, id server.SessionID) {
	for srv.Session(id) != nil {
		time.Sleep(20 * time.Microsecond)
	}
}

// connect registers a session for l and waits for its init reply.
func connect(pop *population, l lifecycle, ch chan reply) (server.SessionID, time.Time, time.Time, reply, error) {
	t0 := time.Now()
	id, err := pop.srv.Register(l.script())
	t1 := time.Now()
	if err != nil {
		return 0, t0, t1, reply{}, err
	}
	return id, t0, t1, pop.router.wait(id, ch), nil
}

func churnClient(pop *population, rng *rand.Rand, start, deadline time.Time, tr *tracer) (*churnPhase, error) {
	ph := &churnPhase{opened: make(map[server.SessionID]lifecycle)}
	ch := make(chan reply, 1)
	for time.Now().Before(deadline) {
		l := newLifecycle(rng)
		id, t0, t1, rep, err := connect(pop, l, ch)
		if err != nil || rep.err != nil {
			ph.failed++
			continue
		}
		if want := fmt.Sprint(l.list); rep.text != want {
			return nil, fmt.Errorf("session %d init: reply %q, want %q", id, rep.text, want)
		}
		t2 := time.Now()
		if err := pop.srv.Disconnect(id); err != nil {
			return nil, fmt.Errorf("disconnect session %d: %w", id, err)
		}
		t3 := time.Now()
		awaitReclaimed(pop.srv, id)
		t4 := time.Now()
		ph.opened[id] = l
		ph.done++
		ph.at = append(ph.at, t4.Sub(start))
		ph.connect = append(ph.connect, ms(rep.at.Sub(t0)))
		ph.reclaim = append(ph.reclaim, ms(t4.Sub(t2)))
		if tr != nil {
			ph.register = append(ph.register, us(t1.Sub(t0)))
			ph.discon = append(ph.discon, us(t3.Sub(t2)))
			root, conn, recl := tr.id(), tr.id(), tr.id()
			tr.leaf(conn, "server.register", t0, t1)
			tr.add(conn, root, "connect", "", t0, rep.at)
			tr.leaf(recl, "server.disconnect", t2, t3)
			tr.add(recl, root, "reclaim", "", t2, t4)
			tr.add(root, 0, "lifecycle", "", t0, t4)
		}
	}
	return ph, nil
}

func runChurnClients(pop *population, rngs []*rand.Rand, d time.Duration, tr *tracer) (*churnPhase, error) {
	start := time.Now()
	deadline := start.Add(d)
	phases, err := fanOut(len(rngs), func(i int) (*churnPhase, error) {
		return churnClient(pop, rngs[i], start, deadline, tr)
	})
	if err != nil {
		return nil, err
	}
	total := &churnPhase{opened: make(map[server.SessionID]lifecycle), elapsed: time.Since(start)}
	for _, ph := range phases {
		total.merge(ph)
	}
	return total, nil
}

func (a *churnPhase) merge(b *churnPhase) {
	a.connect = append(a.connect, b.connect...)
	a.reclaim = append(a.reclaim, b.reclaim...)
	a.register = append(a.register, b.register...)
	a.discon = append(a.discon, b.discon...)
	a.at = append(a.at, b.at...)
	for id, l := range b.opened {
		a.opened[id] = l
	}
	a.done += b.done
	a.failed += b.failed
	a.elapsed += b.elapsed
}

// checkReclaims is the churn correctness gate: every churned session
// was reclaimed, through the guardian path, of exactly the ports and
// resources it opened, with nothing leaked.
func checkReclaims(recs []server.ReclaimRecord, opened map[server.SessionID]lifecycle) (map[server.SessionID]server.ReclaimRecord, error) {
	byID := make(map[server.SessionID]server.ReclaimRecord, len(opened))
	for _, r := range recs {
		if _, ok := opened[r.ID]; ok {
			byID[r.ID] = r
		}
	}
	for id, l := range opened {
		r, ok := byID[id]
		switch {
		case !ok:
			return nil, fmt.Errorf("session %d has no reclaim record", id)
		case r.Ports != l.ports || r.Resources != l.resources:
			return nil, fmt.Errorf("session %d reclaimed %d ports and %d resources, opened %d and %d",
				id, r.Ports, r.Resources, l.ports, l.resources)
		case r.LeakedPorts != 0 || r.LeakedResources != 0:
			return nil, fmt.Errorf("session %d leaked %d ports and %d resources", id, r.LeakedPorts, r.LeakedResources)
		}
	}
	return byID, nil
}

func runChurn(p params, host *hostRecord) (*outcome, error) {
	host.Executors, host.GCWorkers, host.HeapWorkers = 1, 1, sessionHeapWorkers()
	host.Sessions, host.Clients = p.sessions, p.clients
	pop, setup, _, err := setUp(p)
	if err != nil {
		return nil, err
	}
	defer pop.srv.Close()
	rngs := make([]*rand.Rand, p.clients)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(p.seed*7919 + int64(i)))
	}
	// all collects every lifecycle of the run for the reclaim gate.
	all, err := runChurnClients(pop, rngs, p.warmup, nil)
	if err != nil {
		return nil, err
	}

	v := values{}
	out := &outcome{metrics: v, report: map[string]any{}}
	var traced *churnPhase
	var base *churnPhase
	var tr *tracer
	var st0, st1 server.Stats
	if !p.trace {
		ph, err := runChurnClients(pop, rngs, p.duration, nil)
		if err != nil {
			return nil, err
		}
		all.merge(ph)
		out.attempted, out.failed = ph.done+ph.failed, ph.failed
		connect, reclaim := summarize(ph.connect), summarize(ph.reclaim)
		v["setup_s"] = setup
		v["throughput_per_s"] = windowRate(ph.at, ph.elapsed, rateWindow)
		addLatencies(v, connect, reclaim, false)
		v["peak_rss_mb"] = peakRSSMiB()
		out.report["sessions_per_s"] = v["throughput_per_s"]
		out.report["sessions_per_s_mean"] = float64(ph.done) / ph.elapsed.Seconds()
		out.report["connect"], out.report["reclaim"] = connect, reclaim
	} else {
		// The middle half is traced; the quarters before and after it
		// are the untraced half the overhead is measured against.
		if base, err = runChurnClients(pop, rngs, p.duration/4, nil); err != nil {
			return nil, err
		}
		if !pop.srv.WaitIdle(time.Minute) {
			return nil, fmt.Errorf("server did not quiesce before the traced half")
		}
		st0 = pop.srv.Stats()
		tr = newTracer()
		pop.rec.Store(true)
		if traced, err = runChurnClients(pop, rngs, p.duration/2, tr); err != nil {
			return nil, err
		}
		if !pop.srv.WaitIdle(time.Minute) {
			return nil, fmt.Errorf("server did not quiesce after the traced half")
		}
		pop.rec.Store(false)
		st1 = pop.srv.Stats()
		after, err := runChurnClients(pop, rngs, p.duration/4, nil)
		if err != nil {
			return nil, err
		}
		base.merge(after)
		all.merge(base)
		all.merge(traced)
		out.attempted, out.failed = base.done+base.failed+traced.done+traced.failed, base.failed+traced.failed
	}

	if !pop.srv.WaitIdle(time.Minute) {
		return nil, fmt.Errorf("server did not quiesce after the run")
	}
	if live := pop.srv.Stats().Live; live != p.sessions {
		return nil, fmt.Errorf("%d sessions live after the run, want the %d standing ones", live, p.sessions)
	}
	recs, err := checkReclaims(pop.srv.ReclaimRecords(), all.opened)
	if err != nil {
		return nil, err
	}
	out.report["lifecycles_checked"] = len(recs)
	if p.trace {
		if err := churnTraced(p, pop, base, traced, tr, st0, st1, recs, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// churnTraced reports the per-layer metrics of the traced half, plus
// figures from a few lifecycles sampled at quiescence: a session's heap
// can only be read while no server goroutine owns it.
func churnTraced(p params, pop *population, base, ph *churnPhase, tr *tracer,
	st0, st1 server.Stats, recs map[server.SessionID]server.ReclaimRecord, out *outcome) error {
	v := out.metrics
	v["server.register_us"] = median(ph.register)
	v["server.disconnect_us"] = median(ph.discon)
	v["server.template_boot_ratio"] = ratio(float64(st1.TemplateBoots), float64(st1.Registered))
	v["server.drain_collects_per_session"] = ratio(float64(st1.DrainCollects-st0.DrainCollects), float64(st1.Reclaimed-st0.Reclaimed))
	var recMS []float64
	var ports, resources, objects float64
	for id := range ph.opened {
		r := recs[id]
		recMS = append(recMS, ms(r.Latency))
		ports += float64(r.Ports)
		resources += float64(r.Resources)
		objects += float64(r.FinalObjects)
	}
	n := float64(len(ph.opened))
	v["server.reclaim_record_ms"] = median(recMS)
	if _, err := addSchemeProbe(v, p.probe); err != nil {
		return err
	}
	v["ports.reclaimed_per_session"] = ratio(ports, n)
	v["extres.reclaimed_per_session"] = ratio(resources, n)
	v["heap.final_objects"] = ratio(objects, n)
	pop.acc.report(v, ph.elapsed, float64(ph.done))

	standing := sumHeaps(pop.srv, pop.ids)
	sample, err := sampleLifecycles(pop, rand.New(rand.NewSource(p.seed)), p.samples)
	if err != nil {
		return err
	}
	k := float64(p.samples)
	v["heap.barrier_hits_per_op"] = ratio(float64(sample.barrier), k)
	v["heap.words_allocated_per_op"] = ratio(float64(sample.words), k)
	v["heap.cow_copies_per_session"] = ratio(float64(sample.cow), k)
	v["heap.segments_peak"] = float64(standing.segments + sample.segments/max(p.samples, 1))

	bt, tt := float64(base.done)/base.elapsed.Seconds(), float64(ph.done)/ph.elapsed.Seconds()
	b, bReclaim, t := summarize(base.connect), summarize(base.reclaim), summarize(ph.connect)
	addLatencies(v, b, bReclaim, true)
	addOverhead(v, bt, tt, b, t)
	addSelfTimes(v, tr)
	out.report["untraced_half"] = map[string]any{"sessions_per_s": bt, "connect": b, "reclaim": bReclaim}
	out.report["traced_half"] = map[string]any{"sessions_per_s": tt, "connect": t, "reclaim": summarize(ph.reclaim)}
	return writeSpans(p, tr)
}

// sampleLifecycles runs n lifecycles one at a time and reads each
// session's heap counters after its init reply, with the server idle.
func sampleLifecycles(pop *population, rng *rand.Rand, n int) (heapTotals, error) {
	var t heapTotals
	ch := make(chan reply, 1)
	for i := 0; i < n; i++ {
		l := newLifecycle(rng)
		id, _, _, rep, err := connect(pop, l, ch)
		if err != nil || rep.err != nil {
			return t, fmt.Errorf("sample lifecycle: %v %v", err, rep.err)
		}
		if !pop.srv.WaitIdle(time.Minute) {
			return t, fmt.Errorf("sample lifecycle did not quiesce")
		}
		s := sumHeaps(pop.srv, []server.SessionID{id})
		t.barrier += s.barrier
		t.words += s.words
		t.cow += s.cow
		t.segments += s.segments
		if err := pop.srv.Disconnect(id); err != nil {
			return t, err
		}
		awaitReclaimed(pop.srv, id)
	}
	return t, nil
}
