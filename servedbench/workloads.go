package main

import (
	"fmt"
	"math"
	"math/rand"

	flownet "flownet"
	"flownet/internal/datagen"
	"flownet/internal/tin"
)

// opKind is the served operation an op drives; each maps to one route.
type opKind int

const (
	kindSeed     opKind = iota // GET /flow?seed=
	kindPair                   // GET /flow?source=&sink=
	kindPatterns               // GET /patterns (PB)
	kindIngest                 // POST /ingest
	numKinds
)

var kindNames = [numKinds]string{"seed", "pair", "patterns", "ingest"}

func (k opKind) String() string { return kindNames[k] }

// isFlow reports whether the op is a /flow request.
func (k opKind) isFlow() bool { return k == kindSeed || k == kindPair }

// op is one client request of a workload's fixed list.
type op struct {
	kind opKind
	net  string
	// v is the seed vertex (kindSeed) or the source (kindPair); sink is
	// the pair's sink.
	v, sink int
	// maxIA is the seed query's maxinteractions knob (0 = server default).
	maxIA int
	// window, when non-nil, is the inclusive [from, to] time window.
	window *[2]float64
	// pattern names the PB search of a kindPatterns op.
	pattern string
	// batch is the kindIngest payload.
	batch []flownet.IngestInteraction
}

// workload is one named benchmark workload: the networks it serves, how
// the server is configured, and its fixed, seeded op lists.
type workload struct {
	name string
	// durable serves from an on-disk store (WAL + checkpoints).
	durable bool
	// ingest enables the write path; precompute builds the PB tables
	// during set-up.
	ingest, precompute bool
	// dataset and cfg define the generated network every registered
	// network copies.
	dataset datagen.Dataset
	cfg     datagen.Config
	// roundSeconds is the nominal length of one round; a run replays
	// max(1, round(seconds/roundSeconds)) whole rounds.
	roundSeconds float64
	// netNames lists the networks to register for a run of the given
	// number of rounds.
	netNames func(rounds int) []string
	// warmup returns the untimed warm-up ops. They do not depend on the
	// run's seed, so set-up does the same work in every run.
	warmup func(base *tin.Network) []op
	// ops returns the timed op list for a seed, one slice per round. base
	// is the generated network and warm the warm-up ops (ingest batches
	// continue after the warm-up's last timestamp).
	ops func(rng *rand.Rand, base *tin.Network, warm []op, rounds int) [][]op
}

// flatten concatenates the rounds of an op list.
func flatten(rounds [][]op) []op {
	var ops []op
	for _, r := range rounds {
		ops = append(ops, r...)
	}
	return ops
}

// Generator seeds and sizes of the served networks. They are fixed: the
// run's --seed chooses the op lists, never the networks.
const (
	bitcoinVertices = 3000
	bitcoinGenSeed  = 1
	ctu13GenSeed    = 1
	prosperGenSeed  = 1

	// seedStride picks seed-bitcoin's round: every seedStride-th vertex,
	// 1000 seed queries.
	seedStride = 3
	// seedWarmup is the number of warm-up seed queries of seed-bitcoin.
	seedWarmup = 300
	// warmMaxIA is the maxinteractions knob of warm-up seed queries: the
	// extraction is practically the same as the default 10000 but the
	// cache key differs, so the warm-up never pre-answers a timed query.
	warmMaxIA = 9999

	// pairsPerRound is pair-ctu13's round. Within every 8 pairs, 6 are wide
	// and 2 (positions 3 and 7) carry a time window.
	pairsPerRound = 80
	pairMix       = 8
	widePairs     = 6
	pairWarmup    = 8
	// pairPoolSeed draws the fixed pair pool every round replays.
	pairPoolSeed = 13

	// ingest-prosper round shape: per pattern of ingestPatterns, batches
	// of (one ingest + readsPerBatch seed reads), then one PB search.
	batchSize        = 32
	batchesPerSearch = 4
	readsPerBatch    = 8
	zipfS            = 1.2
	// ingestWarmBatches brings the WAL part-way to its 256-record
	// checkpoint before timing starts, so checkpoints land inside timed
	// runs as they do in a long-running server.
	ingestWarmBatches = 240
)

// ingestPatterns is the PB search rotation of ingest-prosper.
var ingestPatterns = []string{"P2", "RP3", "P3"}

var workloads = map[string]*workload{
	"seed-bitcoin": {
		name:         "seed-bitcoin",
		dataset:      datagen.DatasetBitcoin,
		cfg:          datagen.Config{Vertices: bitcoinVertices, Seed: bitcoinGenSeed},
		roundSeconds: 1.8,
		// Every round asks the same seeds of its own copy of the network,
		// so rounds do identical work and every timed query misses the
		// cache. The run's seed orders each round.
		netNames: copies("bitcoin"),
		warmup: func(base *tin.Network) []op {
			ops := make([]op, seedWarmup)
			step := base.NumVertices() / seedWarmup
			for i := range ops {
				ops[i] = op{kind: kindSeed, net: "bitcoin-0", v: i * step, maxIA: warmMaxIA}
			}
			return ops
		},
		ops: func(rng *rand.Rand, base *tin.Network, _ []op, rounds int) [][]op {
			var pool []op
			for v := 0; v < base.NumVertices(); v += seedStride {
				pool = append(pool, op{kind: kindSeed, v: v})
			}
			return shuffledRounds(rng, pool, rounds, "bitcoin")
		},
	},
	"pair-ctu13": {
		name:         "pair-ctu13",
		dataset:      datagen.DatasetCTU13,
		cfg:          datagen.Config{Seed: ctu13GenSeed},
		roundSeconds: 3.4,
		// As in seed-bitcoin: one fixed pool of pairs per round, each round
		// on its own copy, in an order drawn from the run's seed.
		netNames: copies("ctu13"),
		warmup: func(base *tin.Network) []op {
			return pairOps(rand.New(rand.NewSource(-1)), base, pairWarmup, nil)
		},
		ops: func(rng *rand.Rand, base *tin.Network, warm []op, rounds int) [][]op {
			pool := pairOps(rand.New(rand.NewSource(pairPoolSeed)), base, pairsPerRound, warm)
			return shuffledRounds(rng, pool, rounds, "ctu13")
		},
	},
	"ingest-prosper": {
		name:         "ingest-prosper",
		durable:      true,
		ingest:       true,
		precompute:   true,
		dataset:      datagen.DatasetProsper,
		cfg:          datagen.Config{Seed: prosperGenSeed},
		roundSeconds: 1.4,
		netNames:     func(int) []string { return []string{"prosper"} },
		warmup: func(base *tin.Network) []op {
			g := newIngestGen(rand.New(rand.NewSource(-1)), base, base.MaxTime())
			var ops []op
			for i := 0; i < ingestWarmBatches; i++ {
				ops = append(ops, g.batch())
			}
			for _, p := range ingestPatterns {
				ops = append(ops, op{kind: kindPatterns, net: "prosper", pattern: p})
			}
			return append(ops, g.read())
		},
		ops: func(rng *rand.Rand, base *tin.Network, warm []op, rounds int) [][]op {
			g := newIngestGen(rng, base, lastTime(warm, base))
			out := make([][]op, rounds)
			for r := range out {
				for _, p := range ingestPatterns {
					for b := 0; b < batchesPerSearch; b++ {
						out[r] = append(out[r], g.batch())
						for i := 0; i < readsPerBatch; i++ {
							out[r] = append(out[r], g.read())
						}
					}
					out[r] = append(out[r], op{kind: kindPatterns, net: "prosper", pattern: p})
				}
			}
			return out
		},
	},
}

// copies names one network copy per round: prefix-0, prefix-1, ...
func copies(prefix string) func(rounds int) []string {
	return func(rounds int) []string {
		names := make([]string, rounds)
		for r := range names {
			names[r] = fmt.Sprintf("%s-%d", prefix, r)
		}
		return names
	}
}

// shuffledRounds replays pool once per round, on that round's network
// copy, in an order drawn from rng.
func shuffledRounds(rng *rand.Rand, pool []op, rounds int, prefix string) [][]op {
	out := make([][]op, rounds)
	for r := range out {
		for _, i := range rng.Perm(len(pool)) {
			o := pool[i]
			o.net = fmt.Sprintf("%s-%d", prefix, r)
			out[r] = append(out[r], o)
		}
	}
	return out
}

// workloadNames lists the workloads in a fixed order.
var workloadNames = []string{"seed-bitcoin", "pair-ctu13", "ingest-prosper"}

// rounds is the number of whole rounds a run of the given length replays.
func (w *workload) rounds(seconds float64) int {
	r := int(math.Round(seconds / w.roundSeconds))
	if r < 1 {
		r = 1
	}
	return r
}

// pairOps draws count distinct pair queries: the source is a uniform
// vertex, the sink the end of a random 1–3 hop walk along out-edges. The
// mix is fixed per pairMix queries: the first widePairs are wide (their
// subgraph holds at least a tenth of the network, in CTU-13 the giant
// strongly connected component), the rest are not. Positions 3 and 7 carry
// a window covering half of the time range. Pairs already in avoid are not
// drawn again.
func pairOps(rng *rand.Rand, n *tin.Network, count int, avoid []op) []op {
	seen := make(map[[2]int]bool)
	for _, o := range avoid {
		seen[[2]int{o.v, o.sink}] = true
	}
	wide := func(src, snk tin.VertexID) bool {
		g, ok := n.FlowSubgraphBetween(src, snk)
		return ok && g.NumLiveVertices() >= n.NumVertices()/10
	}
	lo, hi := timeRange(n)
	var ops []op
	for len(ops) < count {
		pos := len(ops) % pairMix
		src := rng.Intn(n.NumVertices())
		v, hops := tin.VertexID(src), 1+rng.Intn(3)
		for h := 0; h < hops; h++ {
			out := n.OutEdges(v)
			if len(out) == 0 {
				break
			}
			v = n.Edge(out[rng.Intn(len(out))]).To
		}
		key := [2]int{src, int(v)}
		if int(v) == src || seen[key] || wide(tin.VertexID(src), v) != (pos < widePairs) {
			continue
		}
		seen[key] = true
		o := op{kind: kindPair, net: "ctu13-0", v: src, sink: int(v)}
		if pos == 3 || pos == 7 {
			from := lo + rng.Float64()*(hi-lo)/2
			o.window = &[2]float64{math.Floor(from), math.Floor(from + (hi-lo)/2)}
		}
		ops = append(ops, o)
	}
	return ops
}

// timeRange returns the earliest and latest interaction time of n.
func timeRange(n *tin.Network) (lo, hi float64) {
	lo, hi = math.Inf(1), n.MaxTime()
	for e := 0; e < n.NumEdges(); e++ {
		if s := n.Edge(tin.EdgeID(e)).Seq; len(s) > 0 && s[0].Time < lo {
			lo = s[0].Time
		}
	}
	return lo, hi
}

// lastTime is the latest interaction time after the warm-up's batches.
func lastTime(warm []op, base *tin.Network) float64 {
	t := base.MaxTime()
	for _, o := range warm {
		if o.kind == kindIngest {
			t = o.batch[len(o.batch)-1].Time
		}
	}
	return t
}

// ingestGen draws ingest-prosper's batches and reads. Batches are
// in-order: every interaction is strictly later than the one before. Half
// of a batch's interactions land on existing edges, half on (possibly new)
// pairs inside a community of the generator's shape. Reads are seed
// queries over a Zipf(zipfS) rank of a seeded vertex permutation.
type ingestGen struct {
	rng  *rand.Rand
	base *tin.Network
	t    float64
	rank []int
	zipf *rand.Zipf
}

func newIngestGen(rng *rand.Rand, base *tin.Network, after float64) *ingestGen {
	nv := base.NumVertices()
	return &ingestGen{
		rng:  rng,
		base: base,
		t:    after,
		rank: rng.Perm(nv),
		zipf: rand.NewZipf(rng, zipfS, 1, uint64(nv-1)),
	}
}

// prosperCommunity is the community size of datagen's Prosper shape.
const prosperCommunity = 80

func (g *ingestGen) batch() op {
	nv := g.base.NumVertices()
	items := make([]flownet.IngestInteraction, batchSize)
	for i := range items {
		var from, to int
		if i%2 == 0 {
			e := g.base.Edge(tin.EdgeID(g.rng.Intn(g.base.NumEdges())))
			from, to = int(e.From), int(e.To)
		} else {
			from = g.rng.Intn(nv)
			start := from / prosperCommunity * prosperCommunity
			size := min(prosperCommunity, nv-start)
			for to = from; to == from; {
				to = start + g.rng.Intn(size)
			}
		}
		g.t += float64(1 + g.rng.Intn(3))
		items[i] = flownet.IngestInteraction{From: from, To: to, Time: g.t, Qty: float64(1+g.rng.Intn(20000)) / 100}
	}
	return op{kind: kindIngest, net: "prosper", batch: items}
}

func (g *ingestGen) read() op {
	return op{kind: kindSeed, net: "prosper", v: g.rank[g.zipf.Uint64()]}
}
