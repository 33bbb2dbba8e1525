package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
)

// small returns a copy of a workload on a smaller network, so every
// workload runs end to end in a few seconds.
func small(t *testing.T, name string) *workload {
	t.Helper()
	w := *workloads[name]
	switch name {
	case "seed-bitcoin":
		w.cfg.Vertices = 400
	case "pair-ctu13":
		w.cfg.Vertices = 3000
	case "ingest-prosper":
		w.cfg.Vertices = 600
	}
	return &w
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// checkReport asserts a clean run that reports exactly the declared
// metrics, each finite (and, for end-to-end metrics, positive).
func checkReport(t *testing.T, rep report, want map[string]string, positive bool) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
	}
	if len(rep.Metrics) != len(want) {
		t.Errorf("reported %d metrics %v, BENCHMARK.json declares %d", len(rep.Metrics), rep.Metrics, len(want))
	}
	for name, unit := range want {
		m, ok := rep.Metrics[name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", name)
		case m.Unit != unit:
			t.Errorf("metric %s unit %q, declared %q", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (positive && m.Value <= 0):
			t.Errorf("metric %s = %v", name, m.Value)
		}
	}
}

func TestWorkloads(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w := small(t, name)
			pt, err := untracedPart(w, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			rep, _ := combine([]part{pt, pt})
			checkReport(t, rep, endToEnd, true)
			rep, diag, err := traced(w, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, perLayer, false)
			if diag["replay_mismatches"] != 0 {
				t.Errorf("library replay disagrees with served answers: %v", diag["replay_mismatches"])
			}
		})
	}
}

// TestVerifierCatchesWrongAnswers tampers with served answers and expects
// the verification pass to fail exactly those ops.
func TestVerifierCatchesWrongAnswers(t *testing.T) {
	for _, name := range []string{"seed-bitcoin", "ingest-prosper"} {
		t.Run(name, func(t *testing.T) {
			w := small(t, name)
			e, err := setUp(w, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer e.tearDown()
			ordered := w.ops(rand.New(rand.NewSource(1)), e.base, e.warm, 1)
			ops := flatten(ordered)
			p := e.run(ordered, nil)
			bad, searches := -1, 0
			for i, o := range ops {
				r := &p.results[i]
				if o.kind == kindSeed && r.flow.Ok && r.flow.Flow > 0 && bad < 0 {
					r.flow.Flow *= 1.01
					bad = i
				}
				if o.kind == kindPatterns {
					r.pat.Instances++
					searches++
				}
			}
			if bad < 0 {
				t.Fatal("no seed answer with positive flow to tamper with")
			}
			v := verify(e, ops, p)
			if !v.failed[bad] {
				t.Errorf("tampered flow of op %d passed verification", bad)
			}
			// The verified PB sample: the searches of the first and last round.
			want := 1 + min(searches, 2*len(ingestPatterns))
			if got := v.mismatches(); got != want {
				t.Errorf("%d ops failed verification, want %d: %v", got, want, v.errs)
			}
			if v.final != nil {
				t.Errorf("whole-run checks failed: %v", v.final)
			}
			if rep := newReport(ops, p, v); rep.Correct || rep.Failed != want {
				t.Errorf("report correct=%v failed=%d, want false and %d", rep.Correct, rep.Failed, want)
			}
		})
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{20, 0.5}, {80, 0.875}, {96, 0.875}, {100, 0.9}, {600, 0.98}, {1000, 0.99}, {6000, 0.998}, {20000, 0.999}} {
		p := tailPercentile(c.n)
		if p != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, p, c.want)
		}
		if c.n-rank(c.n, p) < 10 {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than 10 samples beyond", c.n, p)
		}
	}
}
