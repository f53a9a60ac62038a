package main

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/heap"
	"repro/internal/obj"
	"repro/internal/scheme"
	"repro/internal/server"
)

// probeRequests are the evaluated serve kinds at the middle of their
// generated sizes, with their expected values.
var probeRequests = map[string][2]string{
	"fib":    {"(fib 12)", strconv.Itoa(fibOf(12))},
	"list":   {"(let loop ((i 0) (acc '())) (if (< i 300) (loop (+ i 1) (cons i acc)) (length acc)))", "300"},
	"vector": {"(vector-length (make-vector 550 0))", "550"},
}

// probeScheme times Machine.EvalString and Machine.EvalStringCompiled
// on a standalone machine cloned from a prelude template, as a session
// is, and returns the median µs per kind. It is off the request path:
// it shows what evaluation alone costs, which the traced serve run
// subtracts from request latency.
func probeScheme(n int) (evals, vms map[string]float64, err error) {
	donor, err := heap.New(server.DefaultSessionHeapConfig())
	if err != nil {
		return nil, nil, err
	}
	tpl, err := scheme.CaptureTemplate(scheme.New(donor, nil))
	if err != nil {
		return nil, nil, err
	}
	h, _, err := tpl.Clone()
	if err != nil {
		return nil, nil, err
	}
	m := tpl.Attach(h, nil)
	m.Out = io.Discard
	if _, err := m.EvalString(standingFib); err != nil {
		return nil, nil, err
	}
	evals, vms = make(map[string]float64), make(map[string]float64)
	for _, k := range evalKinds {
		req := probeRequests[k]
		if evals[k], err = timeEval(m, m.EvalString, req[0], req[1], n); err != nil {
			return nil, nil, err
		}
		if vms[k], err = timeEval(m, m.EvalStringCompiled, req[0], req[1], n); err != nil {
			return nil, nil, err
		}
	}
	return evals, vms, nil
}

// addSchemeProbe reports probeScheme's medians as the scheme layer's
// metrics and returns the EvalString ones.
func addSchemeProbe(v values, n int) (map[string]float64, error) {
	evals, vms, err := probeScheme(n)
	if err != nil {
		return nil, err
	}
	for _, k := range evalKinds {
		v["scheme.eval_us."+k] = evals[k]
		v["scheme.vm_us."+k] = vms[k]
	}
	return evals, nil
}

func timeEval(m *scheme.Machine, eval func(string) (obj.Value, error), src, want string, n int) (float64, error) {
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := eval(src)
		d := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("probe %q: %w", src, err)
		}
		if got := m.WriteString(v); got != want {
			return 0, fmt.Errorf("probe %q = %s, want %s", src, got, want)
		}
		samples = append(samples, us(d))
	}
	return median(samples), nil
}
