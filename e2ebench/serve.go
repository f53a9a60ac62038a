package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/server"
)

// serve: closed-loop clients send seeded requests to zipf-chosen
// standing sessions. Each client drives its own share of the sessions,
// so a session never has two requests in flight.

// fibOf is the Go reference for the fib request.
func fibOf(n int) int {
	a, b := 0, 1
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// serveMix weights the request kinds. The expensive kinds (fib, list)
// are a fifth of the mix, so four in five requests are cheap and the
// median of all requests lies well inside the cheap mode rather than at
// the edge between the modes, where run-to-run drift would move it most.
var serveMix = []struct {
	kind   string
	weight int
}{{"fib", 1}, {"list", 1}, {"vector", 2}, {"port", 2}, {"extres", 2}, {"msg", 2}}

// drawKind picks a request kind by serveMix weight.
func drawKind(rng *rand.Rand) string {
	total := 0
	for _, m := range serveMix {
		total += m.weight
	}
	w := rng.Intn(total)
	for _, m := range serveMix {
		if w < m.weight {
			return m.kind
		}
		w -= m.weight
	}
	panic("unreachable")
}

// request is one generated serve request and how to check its reply.
type request struct {
	kind   string
	src    string
	expect string // exact reply, unless kind is msg
	msgSeq int64  // msg: the datum's sequence number
}

// mailLedger records every message a request sent, so a msg reply can
// be checked against what was actually sent to that session.
type mailLedger struct {
	mu   sync.Mutex
	next int64
	dest map[int64]server.SessionID
	got  map[int64]bool
}

func (l *mailLedger) send(to server.SessionID) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	l.dest[l.next] = to
	return l.next
}

// receive checks a msg reply for session id: #f, or a datum sent to id
// and not received before.
func (l *mailLedger) receive(id server.SessionID, text string) error {
	if text == "#f" {
		return nil
	}
	var seq int64
	if _, err := fmt.Sscanf(text, "(m %d)", &seq); err != nil {
		return fmt.Errorf("msg reply %q is not a sent datum", text)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	to, ok := l.dest[seq]
	switch {
	case !ok:
		return fmt.Errorf("msg reply %q was never sent", text)
	case to != id:
		return fmt.Errorf("session %d received %q, sent to %d", id, text, to)
	case l.got[seq]:
		return fmt.Errorf("session %d received %q twice", id, text)
	}
	l.got[seq] = true
	return nil
}

func (l *mailLedger) counts() (sent, received int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.dest), len(l.got)
}

// serveClient generates one client's requests from its own seeded
// stream.
type serveClient struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	own  []server.SessionID
	all  []server.SessionID
	mail *mailLedger
}

func newServeClient(seed int64, idx int, own, all []server.SessionID, mail *mailLedger) *serveClient {
	rng := rand.New(rand.NewSource(seed*7919 + int64(idx)))
	return &serveClient{
		rng:  rng,
		zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(own)-1)),
		own:  own,
		all:  all,
		mail: mail,
	}
}

// next picks a session and a request for it.
func (c *serveClient) next() (server.SessionID, request) {
	id := c.own[c.zipf.Uint64()]
	kind := drawKind(c.rng)
	switch kind {
	case "fib":
		n := 11 + c.rng.Intn(3)
		return id, request{kind: kind, src: fmt.Sprintf("(fib %d)", n), expect: strconv.Itoa(fibOf(n))}
	case "list":
		n := 200 + c.rng.Intn(201)
		return id, request{kind: kind, expect: strconv.Itoa(n), src: fmt.Sprintf(
			"(let loop ((i 0) (acc '())) (if (< i %d) (loop (+ i 1) (cons i acc)) (length acc)))", n)}
	case "vector":
		n := 100 + c.rng.Intn(901)
		return id, request{kind: kind, expect: strconv.Itoa(n), src: fmt.Sprintf("(vector-length (make-vector %d 0))", n)}
	case "port":
		return id, request{kind: kind, expect: "ok",
			src: `(let ((p (open-session-port "req.tmp"))) (display "payload" p) 'ok)`}
	case "extres":
		return id, request{kind: kind, expect: "ok",
			src: fmt.Sprintf("(begin (session-alloc 0 %d) 'ok)", 16+c.rng.Intn(241))}
	default: // msg
		to := c.all[c.rng.Intn(len(c.all))]
		for to == id {
			to = c.all[c.rng.Intn(len(c.all))]
		}
		seq := c.mail.send(to)
		return id, request{kind: kind, msgSeq: seq,
			src: fmt.Sprintf("(begin (send-message %d '(m %d)) (take-message))", to, seq)}
	}
}

// servePhase is what the clients measured in one phase.
type servePhase struct {
	lat     map[string][]float64 // per kind, ms
	send    []float64            // Send call durations, µs
	at      []time.Duration      // completion times since the phase began
	done    int
	failed  int
	elapsed time.Duration
}

func (a *servePhase) merge(b *servePhase) {
	for k, v := range b.lat {
		a.lat[k] = append(a.lat[k], v...)
	}
	a.send = append(a.send, b.send...)
	a.at = append(a.at, b.at...)
	a.done += b.done
	a.failed += b.failed
	a.elapsed += b.elapsed
}

func (a *servePhase) all() []float64 {
	var out []float64
	for _, v := range a.lat {
		out = append(out, v...)
	}
	return out
}

// runServeClients drives every client for d and merges what they
// measured.
func runServeClients(pop *population, clients []*serveClient, d time.Duration, tr *tracer) (*servePhase, error) {
	start := time.Now()
	deadline := start.Add(d)
	phases, err := fanOut(len(clients), func(i int) (*servePhase, error) {
		return clients[i].run(pop, start, deadline, tr)
	})
	if err != nil {
		return nil, err
	}
	total := &servePhase{lat: make(map[string][]float64), elapsed: time.Since(start)}
	for _, ph := range phases {
		total.merge(ph)
	}
	return total, nil
}

func (c *serveClient) run(pop *population, start, deadline time.Time, tr *tracer) (*servePhase, error) {
	ph := &servePhase{lat: make(map[string][]float64)}
	ch := make(chan reply, 1)
	for time.Now().Before(deadline) {
		id, req := c.next()
		t0 := time.Now()
		err := pop.srv.Send(id, req.src)
		t1 := time.Now()
		if err != nil {
			ph.failed++
			continue
		}
		rep := pop.router.wait(id, ch)
		if rep.err != nil {
			ph.failed++
			continue
		}
		if req.kind == "msg" {
			err = c.mail.receive(id, rep.text)
		} else if rep.text != req.expect {
			err = fmt.Errorf("session %d %s request %q: reply %q, want %q", id, req.kind, req.src, rep.text, req.expect)
		}
		if err != nil {
			return nil, err
		}
		ph.done++
		ph.at = append(ph.at, rep.at.Sub(start))
		ph.lat[req.kind] = append(ph.lat[req.kind], ms(rep.at.Sub(t0)))
		if tr != nil {
			ph.send = append(ph.send, us(t1.Sub(t0)))
			root := tr.id()
			tr.leaf(root, "server.send", t0, t1)
			tr.add(root, 0, "request", req.kind, t0, rep.at)
		}
	}
	return ph, nil
}

func runServe(p params, host *hostRecord) (*outcome, error) {
	host.Executors, host.GCWorkers, host.HeapWorkers = 1, 1, sessionHeapWorkers()
	host.Sessions, host.Clients = p.sessions, p.clients
	pop, setup, regs, err := setUp(p)
	if err != nil {
		return nil, err
	}
	defer pop.srv.Close()

	mail := &mailLedger{dest: make(map[int64]server.SessionID), got: make(map[int64]bool)}
	clients := make([]*serveClient, p.clients)
	for i := range clients {
		var own []server.SessionID
		for j := i; j < len(pop.ids); j += p.clients {
			own = append(own, pop.ids[j])
		}
		clients[i] = newServeClient(p.seed, i, own, pop.ids, mail)
	}
	if _, err := runServeClients(pop, clients, p.warmup, nil); err != nil {
		return nil, err
	}

	out := &outcome{metrics: values{}, report: map[string]any{}}
	if !p.trace {
		ph, err := runServeClients(pop, clients, p.duration, nil)
		if err != nil {
			return nil, err
		}
		out.attempted, out.failed = ph.done+ph.failed, ph.failed
		out.metrics["setup_s"] = setup
		serveEndToEnd(out, ph)
	} else {
		if err := serveTraced(p, pop, clients, regs, out); err != nil {
			return nil, err
		}
	}

	// Untimed checks at quiescence: every standing session is still
	// registered, and message accounting adds up.
	if !pop.srv.WaitIdle(time.Minute) {
		return nil, fmt.Errorf("server did not quiesce after the run")
	}
	st := pop.srv.Stats()
	if st.Live != p.sessions {
		return nil, fmt.Errorf("%d standing sessions live after the run, want %d", st.Live, p.sessions)
	}
	if st.Undeliverable != 0 {
		return nil, fmt.Errorf("%d messages undeliverable", st.Undeliverable)
	}
	sent, received := mail.counts()
	out.report["messages_sent"], out.report["messages_received"] = sent, received
	return out, nil
}

// timings summarises the phase's two reported latencies: all requests,
// and the evaluation-bound fib and list requests.
func (ph *servePhase) timings() (all, evalBound timing) {
	return summarize(ph.all()), summarize(append(append([]float64(nil), ph.lat["fib"]...), ph.lat["list"]...))
}

// serveEndToEnd fills the end-to-end metrics of an untraced phase.
func serveEndToEnd(out *outcome, ph *servePhase) {
	all, evalBound := ph.timings()
	v := out.metrics
	v["throughput_per_s"] = windowRate(ph.at, ph.elapsed, rateWindow)
	addLatencies(v, all, evalBound, false)
	v["peak_rss_mb"] = peakRSSMiB()
	out.report["throughput_rps"] = v["throughput_per_s"]
	out.report["throughput_rps_mean"] = float64(ph.done) / ph.elapsed.Seconds()
	out.report["request"] = all
	out.report["fib_list_request"] = evalBound
	for _, m := range serveMix {
		out.report["request."+m.kind] = summarize(ph.lat[m.kind])
	}
}

// serveTraced measures the middle half of the run traced and the
// quarters before and after it untraced, and reports the per-layer
// metrics of the traced half.
func serveTraced(p params, pop *population, clients []*serveClient, regs []time.Duration, out *outcome) error {
	base, err := runServeClients(pop, clients, p.duration/4, nil)
	if err != nil {
		return err
	}
	if !pop.srv.WaitIdle(time.Minute) {
		return fmt.Errorf("server did not quiesce between halves")
	}
	st0 := pop.srv.Stats()
	h0 := sumHeaps(pop.srv, pop.ids)
	tr := newTracer()
	pop.rec.Store(true)
	ph, err := runServeClients(pop, clients, p.duration/2, tr)
	if err != nil {
		return err
	}
	if !pop.srv.WaitIdle(time.Minute) {
		return fmt.Errorf("server did not quiesce after the traced half")
	}
	pop.rec.Store(false)
	st1 := pop.srv.Stats()
	h1 := sumHeaps(pop.srv, pop.ids)
	after, err := runServeClients(pop, clients, p.duration/4, nil)
	if err != nil {
		return err
	}
	base.merge(after)
	out.attempted, out.failed = base.done+base.failed+ph.done+ph.failed, base.failed+ph.failed

	v := out.metrics
	reqs := float64(st1.Requests - st0.Requests)
	v["server.send_us"] = median(ph.send)
	var regUS []float64
	for _, d := range regs {
		regUS = append(regUS, us(d))
	}
	v["server.register_us"] = median(regUS)
	v["server.template_boot_ratio"] = ratio(float64(st1.TemplateBoots), float64(st1.Registered))
	v["server.idle_collects_per_kreq"] = ratio(1000*float64(st1.IdleCollects-st0.IdleCollects), reqs)
	v["server.undeliverable_ratio"] = ratio(float64(st1.Undeliverable-st0.Undeliverable), float64(st1.Messages-st0.Messages))
	evals, err := addSchemeProbe(v, p.probe)
	if err != nil {
		return err
	}
	for _, k := range evalKinds {
		v["server.wait_ms."+k] = median(ph.lat[k]) - evals[k]/1000
	}
	pop.acc.report(v, ph.elapsed, float64(ph.done))
	n := float64(h1.sessions)
	v["heap.barrier_hits_per_op"] = ratio(float64(h1.barrier-h0.barrier), float64(ph.done))
	v["heap.words_allocated_per_op"] = ratio(float64(h1.words-h0.words), float64(ph.done))
	v["heap.cow_copies_per_session"] = ratio(float64(h1.cow), n)
	v["heap.segments_peak"] = float64(max(h0.segments, h1.segments))
	v["heap.final_objects"] = ratio(float64(h1.objects), n)
	v["ports.reclaimed_per_session"] = ratio(float64(h1.ports), n)
	v["extres.reclaimed_per_session"] = ratio(float64(h1.resources), n)

	b, bEval := base.timings()
	addLatencies(v, b, bEval, true)
	t := summarize(ph.all())
	bt, tt := float64(base.done)/base.elapsed.Seconds(), float64(ph.done)/ph.elapsed.Seconds()
	addOverhead(v, bt, tt, b, t)
	addSelfTimes(v, tr)
	out.report["untraced_half"] = map[string]any{"throughput_rps": bt, "request": b}
	out.report["traced_half"] = map[string]any{"throughput_rps": tt, "request": t}
	return writeSpans(p, tr)
}

// writeSpans stores a traced run's spans where p says.
func writeSpans(p params, tr *tracer) error {
	if p.spans == "" {
		return nil
	}
	return tr.write(p.spans)
}
