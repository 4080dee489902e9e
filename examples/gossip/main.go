// Gossip demonstrates the paper's §5 research direction implemented as a
// working scheme: all-to-all token exchange under the k-line model on a
// low-degree sparse hypercube, via gather-scatter in 2n rounds — a factor
// 2 from the lower bound, using only the public API.
package main

import (
	"fmt"
	"log"

	"sparsehypercube"
)

func main() {
	const (
		k = 2
		n = 10 // 1024 vertices
	)
	cube, err := sparsehypercube.New(k, n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gossip on a degree-%d sparse hypercube with %d vertices (k = %d):\n\n",
		cube.MaxDegree(), cube.Order(), cube.K())

	rep := cube.Plan(sparsehypercube.GossipScheme{Root: 0}).Verify()
	if !rep.Valid || !rep.Complete {
		log.Fatalf("gossip failed verification: %+v", rep)
	}

	lower := sparsehypercube.GossipMinimumRounds(cube.Order())
	fmt.Printf("  rounds:       %d (gather %d + scatter %d)\n", rep.Rounds, n, n)
	fmt.Printf("  lower bound:  %d (token spread doubles at best)\n", lower)
	fmt.Printf("  valid:        %v\n", rep.Valid)
	fmt.Printf("  complete:     %v — every vertex knows all %d tokens\n", rep.Complete, cube.Order())
	fmt.Printf("  overhead:     %.1fx the lower bound\n\n", float64(rep.Rounds)/float64(lower))

	fmt.Println("the paper's open problem: can gossip finish in the minimum", lower)
	fmt.Println("rounds on a graph of degree o(log N)? Broadcast can (this library's")
	fmt.Println("core result); for gossip the gather-scatter factor 2 is the best here.")
}
