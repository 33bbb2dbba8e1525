// Command servedbench measures flownetd's served path: an in-process
// server (internal/server over internal/store) on a loopback listener,
// driven through the public flownet.Client with retries off by one
// closed-loop connection replaying a fixed, seeded op list.
//
//	servedbench --workload seed-bitcoin --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced rounds, replayed in
// child processes of this binary; --trace 1 traces every second round and
// replays the traced ops through the library entry points the handler
// uses, and reports the per-layer metrics. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Diagnostics go to standard error. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// processes is how many processes an untraced run is split over, one after
// the other. Each sets the workload up once and replays its share of the
// rounds. On a shared 2-vCPU machine the same CPU loop ran up to 50% slower
// in one process than in the next, while chunks of one process agreed
// within a few percent; pooling rounds from several processes evens that
// out.
const processes = 5

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servedbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: seed-bitcoin | pair-ctu13 | ingest-prosper")
	seed := fs.Int64("seed", 1, "seed of the op lists")
	seconds := fs.Float64("seconds", 10, "nominal run length; sets the number of whole rounds replayed")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
	probeOnly := fs.Bool("probe", false, "print the write-path probe figures of README.md and exit")
	partOnly := fs.Bool("part", false, "internal: replay --rounds rounds untraced in this process and print the raw part")
	partRounds := fs.Int("rounds", 1, "internal: the rounds of a --part run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *probeOnly {
		if err := probe(stdout); err != nil {
			fmt.Fprintf(stderr, "servedbench: %v\n", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "servedbench: want --workload one of %v, --trace 0|1, --seconds > 0\n", workloadNames)
		return 2
	}
	if *partOnly {
		pt, err := untracedPart(w, *seed, *partRounds)
		if err != nil {
			fmt.Fprintf(stderr, "servedbench: %v\n", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(pt); err != nil {
			fmt.Fprintf(stderr, "servedbench: %v\n", err)
			return 1
		}
		return 0
	}
	var rep report
	var diag map[string]any
	var err error
	if *trace == 0 {
		rep, diag, err = untraced(w, *seed, w.rounds(*seconds))
	} else {
		rep, diag, err = traced(w, *seed, w.rounds(*seconds))
	}
	if err != nil {
		fmt.Fprintf(stderr, "servedbench: %v\n", err)
		return 1
	}
	diag["workload"], diag["seed"], diag["gomaxprocs"], diag["go"] = w.name, *seed, runtime.GOMAXPROCS(0), runtime.Version()
	if d, err := json.Marshal(diag); err == nil {
		fmt.Fprintf(stderr, "%s\n", d)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "servedbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// part is one process's share of an untraced run: per-round values, to be
// pooled with the other processes' by combine.
type part struct {
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Setup     float64        `json:"setup_s"`
	Heap      float64        `json:"heap_mb"`
	Tput      []float64      `json:"throughput_ops_s"`
	CPU       []float64      `json:"cpu_ms_per_op"`
	P50       []float64      `json:"flow_p50_ms"`
	Tail      []float64      `json:"flow_tail_ms"`
	Diag      map[string]any `json:"diag"`
}

// untracedPart sets the workload up, replays the given number of rounds,
// verifies the answers and returns each round's end-to-end values.
func untracedPart(w *workload, seed int64, rounds int) (part, error) {
	t0 := time.Now()
	e, err := setUp(w, rounds, nil)
	if err != nil {
		return part{}, err
	}
	setup := time.Since(t0).Seconds()
	defer e.tearDown()
	ordered := w.ops(rand.New(rand.NewSource(seed)), e.base, e.warm, rounds)
	ops := flatten(ordered)
	p := e.run(ordered, nil)
	heap := liveHeapMB()
	t0 = time.Now()
	v := verify(e, ops, p)
	verifyTime := time.Since(t0)

	rep := newReport(ops, p, v)
	pt := part{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Setup: setup, Heap: heap}
	var tail float64
	var perRound int
	for _, rd := range p.rounds {
		var flows samples
		for i := rd.first; i < rd.end; i++ {
			if ops[i].kind.isFlow() {
				flows = append(flows, p.results[i].lat)
			}
		}
		n := float64(rd.end - rd.first)
		tail, perRound = tailPercentile(len(flows)), len(flows)
		pt.Tput = append(pt.Tput, n/rd.wall.Seconds())
		pt.CPU = append(pt.CPU, ms(rd.cpu)/n)
		pt.P50 = append(pt.P50, flows.quantile(0.5))
		pt.Tail = append(pt.Tail, flows.quantile(tail))
	}
	pt.Diag = diagnostics(ops, p, v, rounds)
	pt.Diag["setup_s"], pt.Diag["verify_s"] = setup, verifyTime.Seconds()
	pt.Diag["flow_samples_per_round"], pt.Diag["flow_tail_percentile"] = perRound, 100*tail
	return pt, nil
}

// combine pools the processes' rounds. Every round does the same mix of
// work, and each metric is the median of its per-round values, so neither
// a burst of interference in one round nor one process's luck with memory
// placement moves it. setup_s and heap_mb are medians over processes.
func combine(parts []part) (report, map[string]any) {
	rep := report{Correct: true}
	var setups, heaps, tput, cpu, p50, tail []float64
	var diags []map[string]any
	for _, pt := range parts {
		rep.Correct = rep.Correct && pt.Correct
		rep.Attempted += pt.Attempted
		rep.Failed += pt.Failed
		setups, heaps = append(setups, pt.Setup), append(heaps, pt.Heap)
		tput, cpu = append(tput, pt.Tput...), append(cpu, pt.CPU...)
		p50, tail = append(p50, pt.P50...), append(tail, pt.Tail...)
		diags = append(diags, pt.Diag)
	}
	rep.Metrics = map[string]metric{
		"setup_s":          {median(setups), "s"},
		"throughput_ops_s": {median(tput), "ops/s"},
		"flow_p50_ms":      {median(p50), "ms"},
		"flow_tail_ms":     {median(tail), "ms"},
		"cpu_ms_per_op":    {median(cpu), "ms"},
		"heap_mb":          {median(heaps), "MB"},
	}
	return rep, map[string]any{"processes": diags, "round_throughputs": tput}
}

// untraced runs the rounds split over processes child processes of this
// binary, one after the other, and combines their parts.
func untraced(w *workload, seed int64, rounds int) (report, map[string]any, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, nil, err
	}
	per := (rounds + processes - 1) / processes
	var parts []part
	for k := 0; k < processes; k++ {
		var out bytes.Buffer
		cmd := exec.Command(exe, "--part", "--workload", w.name,
			"--seed", strconv.FormatInt(seed, 10), "--rounds", strconv.Itoa(per))
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return report{}, nil, fmt.Errorf("part %d: %w", k, err)
		}
		var pt part
		if err := json.Unmarshal(out.Bytes(), &pt); err != nil {
			return report{}, nil, fmt.Errorf("part %d: %w", k, err)
		}
		parts = append(parts, pt)
	}
	rep, diag := combine(parts)
	return rep, diag, nil
}

// newReport counts attempted and failed ops: an op fails when its request
// failed or when verification rejected its answer.
func newReport(ops []op, p pass, v verification) report {
	rep := report{Attempted: len(ops), Correct: v.final == nil && v.mismatches() == 0}
	for i := range ops {
		if p.results[i].err != nil || v.failed[i] {
			rep.Failed++
		}
	}
	return rep
}

// diagnostics are the per-kind op counts and run conditions reported on
// standard error.
func diagnostics(ops []op, p pass, v verification, rounds int) map[string]any {
	type kindCount struct {
		Attempted int `json:"attempted"`
		Failed    int `json:"failed"`
	}
	kinds := map[string]*kindCount{}
	var errs []string
	for i, o := range ops {
		k := kinds[o.kind.String()]
		if k == nil {
			k = &kindCount{}
			kinds[o.kind.String()] = k
		}
		k.Attempted++
		if r := p.results[i]; r.err != nil || v.failed[i] {
			k.Failed++
			if r.err != nil && len(errs) < 5 {
				errs = append(errs, fmt.Sprintf("op %d: %v", i, r.err))
			}
		}
	}
	d := map[string]any{
		"rounds":         rounds,
		"ops":            kinds,
		"wall_s":         p.wall.Seconds(),
		"steal_ms":       p.steal * 10, // USER_HZ = 100
		"verified_ops":   v.checked,
		"request_errors": errs,
		"verify_errors":  v.errs,
	}
	if v.final != nil {
		d["verify_final"] = v.final.Error()
	}
	return d
}

// traced replays the op list once, tracing every second round, then
// replays the traced rounds through the library on a replica, and reports
// the per-layer metrics. The untraced rounds give the runtime counters and
// the baseline of the tracing overhead.
func traced(w *workload, seed int64, rounds int) (report, map[string]any, error) {
	rounds = max(rounds, 2) // at least one untraced and one traced round
	t := &tracer{t0: time.Now()}
	e, err := setUp(w, rounds, t)
	if err != nil {
		return report{}, nil, err
	}
	defer e.tearDown()
	ordered := w.ops(rand.New(rand.NewSource(seed)), e.base, e.warm, rounds)
	ops := flatten(ordered)
	t.client = make([]int32, len(ops))
	st0, err := e.stats()
	if err != nil {
		return report{}, nil, err
	}
	p := e.run(ordered, t)
	st1, err := e.stats()
	if err != nil {
		return report{}, nil, err
	}
	rp, err := newReplica(e, rounds)
	if err != nil {
		return report{}, nil, err
	}
	defer rp.close()
	for _, rd := range p.rounds {
		tr := t
		if !rd.traced {
			tr = nil
		}
		for i := rd.first; i < rd.end; i++ {
			if err := rp.replay(tr, int32(i), ops[i], p.results[i]); err != nil {
				return report{}, nil, fmt.Errorf("replaying op %d (%s): %w", i, ops[i].kind, err)
			}
		}
	}
	v := verify(e, ops, p)
	rep := newReport(ops, p, v)
	rep.Metrics = layerMetrics(e, t, rp, p, st0, st1)
	diag := diagnostics(ops, p, v, rounds)
	diag["replay_mismatches"] = rp.flowMismatch
	path, err := t.write(fmt.Sprintf("%s-seed%d", w.name, seed))
	if err != nil {
		return report{}, nil, errors.Join(errors.New("writing spans"), err)
	}
	diag["spans"], diag["span_file"] = len(t.spans), path
	return rep, diag, nil
}
