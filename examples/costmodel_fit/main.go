// Cost-model fitting: profile the ground-truth kernel timer offline, fit
// the Eq. 1 hyperparameters, and predict microbatch times — including the
// Figure 9 effect (a chunked request's latter half costs more than its
// former half).
//
//	go run ./examples/costmodel_fit
package main

import (
	"fmt"
	"log"

	"kunserve/internal/batching"
	"kunserve/internal/core/lookahead"
	"kunserve/internal/costmodel"
	"kunserve/internal/gpu"
	"kunserve/internal/model"
	"kunserve/internal/request"
)

func main() {
	timer := gpu.NewTimer(gpu.A800(), model.Qwen25_14B(), 1)
	m, err := costmodel.FitFromTimer(timer)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fitted Eq.1: alpha=%.3e beta=%.3e gamma=%.3e lambda=%.3e\n",
		m.Alpha, m.Beta, m.Gamma, m.Lambda)

	// Figure 9: equal token counts, unequal costs.
	former := m.ChunkSeconds(0, 2048)
	latter := m.ChunkSeconds(2048, 2048)
	fmt.Printf("2048-token chunk without prefix: %.1f ms\n", former*1000)
	fmt.Printf("2048-token chunk after 2048 prefix: %.1f ms (+%.0f%%)\n",
		latter*1000, (latter/former-1)*100)

	// The lookahead former balances a skewed batch by cost, not tokens.
	mk := func(id, tokens int) batching.Item {
		r := request.New(id, 0, tokens, 8)
		return batching.Item{Req: r, IsPrefill: true, Chunk: tokens}
	}
	items := []batching.Item{mk(1, 7000), mk(2, 500), mk(3, 500), mk(4, 500)}
	f := &lookahead.Former{Model: m}
	// Each result lives in its own scratch: a Split's microbatches are
	// valid only until its next formation.
	var laSplit, tcSplit batching.Split
	la := f.Form(&laSplit, nil, items, 2)
	tc := batching.SplitByTokenCount(&tcSplit, nil, items, 4)
	report := func(name string, mbs []batching.Microbatch) {
		fmt.Printf("%s microbatch times:", name)
		for _, mb := range mbs {
			fmt.Printf(" %.0fms", timer.Time(batching.ToChunkWork(mb.Items), mb.Dec).Seconds()*1000)
		}
		fmt.Println()
	}
	report("token-count", tc)
	report("lookahead  ", la)
	fmt.Println("balanced microbatch times mean fewer pipeline bubbles (Figure 8)")
}
