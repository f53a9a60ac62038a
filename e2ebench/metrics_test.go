package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func checkDefs(t *testing.T, kind string, defs []metricDef, limit int) {
	t.Helper()
	if len(defs) == 0 || len(defs) > limit {
		t.Errorf("%d %s metrics, want 1..%d", len(defs), kind, limit)
	}
	seen := map[string]bool{}
	for _, d := range defs {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("%s metric name %q does not match %s", kind, d.Name, nameRE)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s metric %q unit %q does not match %s", kind, d.Name, d.Unit, unitRE)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s metric %q better = %q", kind, d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("%s metric %q declared twice", kind, d.Name)
		}
		seen[d.Name] = true
	}
}

func TestMetricNames(t *testing.T) {
	checkDefs(t, "end-to-end", endToEnd, 16)
	checkDefs(t, "per-layer", perLayer, 128)
	for _, d := range endToEnd {
		for _, l := range perLayer {
			if d.Name == l.Name {
				t.Errorf("%q is both an end-to-end and a per-layer metric", d.Name)
			}
		}
	}
	if endToEnd[0] != (metricDef{"setup_s", "s", "lower"}) {
		t.Errorf("first end-to-end metric = %+v, want setup_s", endToEnd[0])
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the tables the
// program prints from in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, benchmarked) {
		t.Errorf("BENCHMARK.json workloads %v, program lists %v", names, benchmarked)
	}
	for _, name := range benchmarked {
		if workloads[name] == nil {
			t.Errorf("benchmarked workload %q is not one the program runs", name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if (metricDef{m.Name, m.Unit, m.Better}) != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, perLayer[i])
		}
	}
}

func TestRenderRejectsUndeclared(t *testing.T) {
	if _, err := (values{"nope": 1}).render(endToEnd); err == nil {
		t.Fatal("render accepted an undeclared metric")
	}
	m, err := (values{"setup_s": 2}).render(endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != len(endToEnd) || m["setup_s"] != (metricValue{2, "s"}) {
		t.Fatalf("render = %v", m)
	}
}
