package main

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"flownet/internal/datagen"
	"flownet/internal/pattern"
	"flownet/internal/stream"
	"flownet/internal/tin"
)

// probeRepeats is how many batches each probe times; it reports the
// median.
const probeRepeats = 5

// probe prints the cost of the write-path steps the README quotes: a
// 32-interaction append on each dataset shape at its default size, and on
// Prosper a pattern.Tables.Update over one batch's changed edges next to a
// full pattern.Precompute.
func probe(out io.Writer) error {
	for _, d := range []datagen.Dataset{datagen.DatasetCTU13, datagen.DatasetProsper, datagen.DatasetBitcoin} {
		n := datagen.Generate(d, datagen.Config{Seed: 1})
		live, err := stream.Wrap(n)
		if err != nil {
			return err
		}
		var changed []tin.EdgeID
		live.SetOnChange(func(_ uint64, delta stream.Delta) { changed = delta.Edges })
		var tabs pattern.Tables
		var precompute time.Duration
		if d == datagen.DatasetProsper {
			t0 := time.Now()
			tabs = pattern.Precompute(n, true)
			precompute = time.Since(t0)
		}
		rng := rand.New(rand.NewSource(1))
		t, nv, ia := n.MaxTime(), n.NumVertices(), n.NumInteractions()
		var appends, updates []float64
		for k := 0; k < probeRepeats; k++ {
			// As in ingest-prosper: half the interactions on existing edges,
			// half on (mostly new) vertex pairs.
			items := make([]stream.Item, batchSize)
			for i := range items {
				from, to := tin.VertexID(rng.Intn(nv)), tin.VertexID(rng.Intn(nv))
				if i%2 == 0 || from == to {
					e := n.Edge(tin.EdgeID(rng.Intn(n.NumEdges())))
					from, to = e.From, e.To
				}
				t++
				items[i] = stream.Item{From: from, To: to, Time: t, Qty: 1}
			}
			t0 := time.Now()
			if _, err := live.Append(items, stream.Options{}); err != nil {
				return err
			}
			appends = append(appends, ms(time.Since(t0)))
			if d == datagen.DatasetProsper {
				sort.Slice(changed, func(a, b int) bool { return changed[a] < changed[b] })
				live.View(func(n *tin.Network, _ uint64) {
					t0 := time.Now()
					tabs = tabs.Update(n, changed)
					updates = append(updates, ms(time.Since(t0)))
				})
			}
		}
		fmt.Fprintf(out, "%s: %d vertices, %d interactions: %d-interaction append %.1f ms (median of %d)\n",
			d, nv, ia, batchSize, median(appends), probeRepeats)
		if d == datagen.DatasetProsper {
			fmt.Fprintf(out, "%s: Tables.Update on one batch's changed edges %.0f ms (median of %d); full Precompute %.0f ms\n",
				d, median(updates), probeRepeats, ms(precompute))
		}
	}
	return nil
}
