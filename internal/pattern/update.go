package pattern

import (
	"slices"
	"sort"

	"flownet/internal/tin"
)

// Delta updates (footnote 2 of the paper): interaction networks grow over
// time, and rebuilding the path tables from scratch after every batch of
// new interactions is wasteful. Update refreshes a table against the new
// network state at row granularity: it recomputes exactly the paths that
// traverse a changed edge and carries every other row over as is — the
// same Row value, sharing its Verts, Edges and Arr slices with the old
// table. Its cost is O(Σ degree) enumeration around the changed edges plus
// one greedy pass per affected path, and one copy of the row headers; it
// never re-walks a path whose edges did not change.
//
// Requirements on the new network state n: it must be append-derived from
// the network the table was built on. Appends never delete edges, existing
// edges keep their EdgeIDs (tin.Network assigns edge ids by first
// appearance) and existing interactions keep their relative canonical
// order, so a path over unchanged edges has the same flow and arrivals as
// before; for in-order appends its arrivals keep their Ords too, and the
// result equals a from-scratch Precompute bit for bit. `changed` lists the
// ids, in n, of edges that are new or received new interactions.
//
// The paths through a changed edge e = (u, v), by e's position:
//   - 2-hop cycles a→b→a: e is (a,b) or (b,a); one probe for the reverse
//     edge.
//   - 3-hop cycles a→b→c→a: e is (a,b) (walk v's out-edges, probe (c,u)),
//     (b,c) (walk u's in-edges, probe (v,a)), or (c,a) (walk v's
//     out-edges, probe (b,u)).
//   - 2-hop chains a→b→c: e is (a,b) (walk v's out-edges) or (b,c) (walk
//     u's in-edges).
//
// The affected paths are deduplicated, computed once each, and merged into
// the old rows by the table's sort key (anchor, Edges[0], Edges[1]) in one
// pass: an old row with the same key is replaced, a new key is inserted.
func (t *Table) Update(n *tin.Network, changed []tin.EdgeID) *Table {
	var paths []path
	for _, e := range changed {
		for pos := 0; pos < t.Hops; pos++ {
			paths = t.pathsThrough(n, e, pos, paths)
		}
	}
	slices.SortFunc(paths, func(p, q path) int { return p.compare(&q) })

	if len(paths) == 0 {
		return t // no path crosses the delta: the table is already current
	}
	var sc pathScratch
	fresh := make([]Row, 0, len(paths))
	for i := range paths {
		if i > 0 && paths[i-1].compare(&paths[i]) == 0 {
			continue // the same path reached through two changed edges
		}
		fresh = append(fresh, t.row(n, &paths[i], &sc))
	}

	out := &Table{Hops: t.Hops, Cyclic: t.Cyclic}
	out.Rows = make([]Row, 0, len(t.Rows)+len(fresh))
	var inserted []tin.VertexID // anchors of the rows new to the table, ascending
	pos := 0                    // next old row to carry
	for i := range fresh {
		// The old row this fresh row replaces, or the one it goes before,
		// lies in the fresh row's anchor group: binary-search the group,
		// carry every old row ahead of it in one copy, then drop the stale
		// row if the keys match.
		a := int(fresh[i].Anchor())
		lo, hi := max(pos, t.rowsBefore(a)), t.rowsBefore(a+1)
		k := lo + sort.Search(hi-lo, func(j int) bool {
			return compareEdges(t.Rows[lo+j].Edges, fresh[i].Edges) >= 0
		})
		out.Rows = append(out.Rows, t.Rows[pos:k]...)
		pos = k
		if k < hi && compareEdges(t.Rows[k].Edges, fresh[i].Edges) == 0 {
			pos++
		} else {
			inserted = append(inserted, fresh[i].Anchor())
		}
		out.Rows = append(out.Rows, fresh[i])
	}
	out.Rows = append(out.Rows, t.Rows[pos:]...)

	// Each anchor group moves down by the rows inserted ahead of it.
	nv := n.NumVertices()
	out.start = make([]int32, nv+1)
	ins := 0
	for a := 0; a <= nv; a++ {
		for ins < len(inserted) && int(inserted[ins]) < a {
			ins++
		}
		out.start[a] = int32(t.rowsBefore(a) + ins)
	}
	return out
}

// Update refreshes all bundled tables (see Table.Update).
func (t Tables) Update(n *tin.Network, changed []tin.EdgeID) Tables {
	out := Tables{
		L2: t.L2.Update(n, changed),
		L3: t.L3.Update(n, changed),
	}
	if t.C2 != nil {
		out.C2 = t.C2.Update(n, changed)
	}
	return out
}
