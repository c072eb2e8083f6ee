package gpapriori_test

import (
	"fmt"

	"gpapriori"
)

// The worked example of the paper's Figure 2: four transactions over
// items 1..7, mined at 75% minimum support.
func ExampleMine() {
	db := gpapriori.NewDatabase([][]gpapriori.Item{
		{1, 2, 3, 4, 5},
		{2, 3, 4, 5, 6},
		{3, 4, 6, 7},
		{1, 3, 4, 5, 6},
	})
	res, err := gpapriori.Mine(db, gpapriori.Config{
		Algorithm:       gpapriori.AlgoGPApriori,
		RelativeSupport: 0.75,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, s := range res.Itemsets {
		fmt.Println(s.Items, s.Support)
	}
	// Output:
	// [3] 4
	// [4] 4
	// [5] 3
	// [6] 3
	// [3 4] 4
	// [3 5] 3
	// [3 6] 3
	// [4 5] 3
	// [4 6] 3
	// [3 4 5] 3
	// [3 4 6] 3
}

// Association rules with confidence and lift, the paper's motivating
// application.
func ExampleGenerateRules() {
	db := gpapriori.NewDatabase([][]gpapriori.Item{
		{1, 2}, {1, 2}, {1, 2}, {1}, {3},
	})
	res, _ := gpapriori.Mine(db, gpapriori.Config{
		Algorithm:  gpapriori.AlgoFPGrowth,
		MinSupport: 2,
	})
	rules, _ := gpapriori.GenerateRules(res, db, 0.7)
	for _, r := range rules {
		fmt.Println(r)
	}
	// Output:
	// 2 => 1 (sup=0.60 conf=1.00 lift=1.25)
	// 1 => 2 (sup=0.60 conf=0.75 lift=1.25)
}

// Every algorithm returns the same itemsets; pick by performance trait.
func ExampleAlgorithms() {
	db := gpapriori.NewDatabase([][]gpapriori.Item{
		{0, 1}, {0, 1}, {1, 2},
	})
	for _, algo := range gpapriori.Algorithms() {
		res, err := gpapriori.Mine(db, gpapriori.Config{Algorithm: algo, MinSupport: 2})
		if err != nil {
			fmt.Println(algo, "error:", err)
			continue
		}
		fmt.Println(algo, res.Len())
	}
	// Output:
	// gpapriori 3
	// cpu-bitset 3
	// borgelt 3
	// bodon 3
	// goethals 3
	// eclat 3
	// eclat-diffset 3
	// fpgrowth 3
	// pipeline 3
}

// Closed itemsets are a lossless condensation of the result.
func ExampleClosedItemsets() {
	db := gpapriori.NewDatabase([][]gpapriori.Item{
		{1, 2}, {1, 2}, {1, 2, 3},
	})
	full, _ := gpapriori.Mine(db, gpapriori.Config{Algorithm: gpapriori.AlgoEclat, MinSupport: 1})
	closed := gpapriori.ClosedItemsets(full)
	fmt.Println("full:", full.Len(), "closed:", closed.Len())
	for _, s := range closed.Itemsets {
		fmt.Println(s.Items, s.Support)
	}
	// Output:
	// full: 7 closed: 2
	// [1 2] 3
	// [1 2 3] 1
}
