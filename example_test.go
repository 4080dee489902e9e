package sparsehypercube_test

import (
	"bytes"
	"fmt"

	"sparsehypercube"
)

// The headline result: a 2-line broadcast graph on 2^15 vertices with
// maximum degree 6 instead of 15, still broadcasting in 15 rounds.
func ExampleNew() {
	cube, err := sparsehypercube.New(2, 15)
	if err != nil {
		panic(err)
	}
	fmt.Println("max degree:", cube.MaxDegree())
	fmt.Println("order:", cube.Order())
	// Output:
	// max degree: 6
	// order: 32768
}

// Broadcasting and verifying against the k-line model through the
// Scheme/Plan engine.
func ExampleCube_Plan() {
	cube, err := sparsehypercube.New(2, 10)
	if err != nil {
		panic(err)
	}
	plan := cube.Plan(sparsehypercube.BroadcastScheme{Source: 0})
	report := plan.Verify()
	fmt.Println("rounds:", report.Rounds)
	fmt.Println("minimum time:", report.MinimumTime)
	fmt.Println("max call length:", report.MaxCallLength)
	// Output:
	// rounds: 10
	// minimum time: true
	// max call length: 2
}

// Write a plan once, replay and re-verify it from the serialised form.
func ExampleReadPlan() {
	cube, err := sparsehypercube.New(2, 10)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if _, err := cube.Plan(sparsehypercube.BroadcastScheme{Source: 7}).WriteTo(&buf); err != nil {
		panic(err)
	}
	replay, err := sparsehypercube.ReadPlan(&buf)
	if err != nil {
		panic(err)
	}
	report := replay.Verify()
	fmt.Println("scheme:", replay.Scheme().Name())
	fmt.Println("valid:", report.Valid)
	fmt.Println("minimum time:", report.MinimumTime)
	// Output:
	// scheme: broadcast
	// valid: true
	// minimum time: true
}

// Explicit paper parameters: Construct_BASE(15, 3) is the paper's
// Example 3, a 6-regular graph.
func ExampleNewWithDims() {
	cube, err := sparsehypercube.NewWithDims(2, []int{3, 15})
	if err != nil {
		panic(err)
	}
	fmt.Println("degree:", cube.MaxDegree())
	fmt.Println("edges:", cube.NumEdges())
	// Output:
	// degree: 6
	// edges: 98304
}

// The degree bounds of Theorems 2, 5 and 7.
func ExampleLowerBoundDegree() {
	lb := sparsehypercube.LowerBoundDegree(2, 16)
	ub, _ := sparsehypercube.UpperBoundDegree(2, 16)
	fmt.Printf("%d <= Delta <= %d\n", lb, ub)
	// Output:
	// 4 <= Delta <= 8
}

// All-to-all gossip (the paper's §5 direction) in 2n rounds.
func ExampleGossipScheme() {
	cube, err := sparsehypercube.New(2, 8)
	if err != nil {
		panic(err)
	}
	rep := cube.Plan(sparsehypercube.GossipScheme{Root: 0}).Verify()
	fmt.Println("rounds:", rep.Rounds)
	fmt.Println("complete:", rep.Complete)
	// Output:
	// rounds: 16
	// complete: true
}
