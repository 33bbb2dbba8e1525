package pattern

import (
	"math"
	"math/rand"
	"testing"

	"flownet/internal/tin"
)

// FuzzTablesUpdate is the differential harness of the row-level updater:
// a random small network grows through a chain of in-order append
// batches, and after every batch Tables.Update on the previous tables must
// equal a from-scratch Precompute on the grown network bit for bit —
// Verts, Edges, Flow and every arrival including its Ord — and so must the
// anchor-level updater it replaced (anchorLevelUpdate). Batches mix
// interactions on existing edges, brand-new edges, edges that close 2- and
// 3-cycles (which then sit at every path position across the cycle's
// rotations), chain extensions, and edges to freshly grown vertices.
//
// The seed corpus runs in the tier-1 suite in milliseconds; long runs use
// go test -run XXX -fuzz FuzzTablesUpdate.
func FuzzTablesUpdate(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(4+seed), uint8(10*seed), uint8(3), uint8(6))
	}
	f.Add(int64(99), uint8(2), uint8(0), uint8(4), uint8(3))   // starts with no edges
	f.Add(int64(7), uint8(12), uint8(60), uint8(6), uint8(16)) // denser
	f.Fuzz(func(t *testing.T, seed int64, nv, base, batches, batchLen uint8) {
		rng := rand.New(rand.NewSource(seed))
		v := 2 + int(nv)%14
		n := tin.NewNetwork(v)
		clock := 0.0
		for i := 0; i < int(base)%64; i++ {
			a, b := tin.VertexID(rng.Intn(v)), tin.VertexID(rng.Intn(v))
			clock += float64(rng.Intn(3)) // ties exercise the insertion-index order
			n.AddInteraction(a, b, clock, float64(1+rng.Intn(9)))
		}
		n.Finalize()
		tables := Precompute(n, true)
		for k := 0; k < 1+int(batches)%6; k++ {
			if rng.Intn(4) == 0 {
				n.GrowVertices(n.NumVertices() + 1)
			}
			items := make([]tin.BatchItem, 1+int(batchLen)%24)
			for i := range items {
				from, to := fuzzEndpoints(rng, n)
				clock += float64(rng.Intn(3))
				items[i] = tin.BatchItem{From: from, To: to, Time: clock, Qty: float64(1 + rng.Intn(9))}
			}
			_, changed, err := n.AppendBatchDelta(items)
			if err != nil {
				t.Fatal(err)
			}
			oracle := Tables{
				L2: anchorLevelUpdate(tables.L2, n, changed),
				L3: anchorLevelUpdate(tables.L3, n, changed),
				C2: anchorLevelUpdate(tables.C2, n, changed),
			}
			tables = tables.Update(n, changed)
			fresh := Precompute(n, true)
			for _, c := range []struct {
				name                 string
				got, oracle, rebuilt *Table
			}{
				{"L2", tables.L2, oracle.L2, fresh.L2},
				{"L3", tables.L3, oracle.L3, fresh.L3},
				{"C2", tables.C2, oracle.C2, fresh.C2},
			} {
				requireIdentical(t, c.name+" update vs precompute", c.got, c.rebuilt)
				requireIdentical(t, c.name+" anchor-level vs precompute", c.oracle, c.rebuilt)
			}
		}
	})
}

// fuzzEndpoints draws one appended interaction's endpoints: on an existing
// edge, on a random (often new) pair, closing a 2-cycle, closing a 3-cycle
// (a→b→c plus c→a), extending a chain (a→b plus b→c for a fresh c), or
// touching the highest vertex id (possibly just grown). It may return a
// self loop, which AppendBatchDelta skips.
func fuzzEndpoints(rng *rand.Rand, n *tin.Network) (tin.VertexID, tin.VertexID) {
	v := n.NumVertices()
	randomVertex := func() tin.VertexID { return tin.VertexID(rng.Intn(v)) }
	if n.NumEdges() == 0 {
		return randomVertex(), randomVertex()
	}
	ed := n.Edge(tin.EdgeID(rng.Intn(n.NumEdges())))
	switch rng.Intn(6) {
	case 0:
		return ed.From, ed.To
	case 1:
		return ed.To, ed.From
	case 2:
		if out := n.OutEdges(ed.To); len(out) > 0 {
			return n.Edge(out[rng.Intn(len(out))]).To, ed.From
		}
	case 3:
		return ed.To, randomVertex()
	case 4:
		if rng.Intn(2) == 0 {
			return tin.VertexID(v - 1), ed.From
		}
		return ed.To, tin.VertexID(v - 1)
	}
	return randomVertex(), randomVertex()
}

// requireIdentical fails unless two tables hold the same rows bit for bit
// and index the same anchor groups.
func requireIdentical(t *testing.T, name string, got, want *Table) {
	t.Helper()
	if got.Hops != want.Hops || got.Cyclic != want.Cyclic || len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: shape (%d,%v,%d rows) vs (%d,%v,%d rows)", name,
			got.Hops, got.Cyclic, len(got.Rows), want.Hops, want.Cyclic, len(want.Rows))
	}
	for i := range got.Rows {
		g, w := &got.Rows[i], &want.Rows[i]
		same := len(g.Verts) == len(w.Verts) && len(g.Edges) == len(w.Edges) &&
			len(g.Arr) == len(w.Arr) && math.Float64bits(g.Flow) == math.Float64bits(w.Flow)
		for j := 0; same && j < len(g.Verts); j++ {
			same = g.Verts[j] == w.Verts[j]
		}
		for j := 0; same && j < len(g.Edges); j++ {
			same = g.Edges[j] == w.Edges[j]
		}
		for j := 0; same && j < len(g.Arr); j++ {
			a, b := g.Arr[j], w.Arr[j]
			same = math.Float64bits(a.Time) == math.Float64bits(b.Time) &&
				math.Float64bits(a.Qty) == math.Float64bits(b.Qty) && a.Ord == b.Ord
		}
		if !same {
			t.Fatalf("%s: row %d differs:\n got  %+v\n want %+v", name, i, *g, *w)
		}
	}
	for a := 0; a < max(len(got.start), len(want.start)); a++ {
		if got.rowsBefore(a) != want.rowsBefore(a) {
			t.Fatalf("%s: anchor %d group starts at row %d, want %d", name, a, got.rowsBefore(a), want.rowsBefore(a))
		}
	}
}
