// Quickstart: generate a correlated field, extract the paper's
// correlation statistics, and compress it with all three error-bounded
// lossy compressors at the paper's error bounds.
package main

import (
	"fmt"
	"log"

	"lossycorr"
)

func main() {
	// 1. A 2D Gaussian random field with squared-exponential covariance
	// and a known correlation range of 16 grid points.
	field, err := lossycorr.GenerateGaussian(lossycorr.GaussianParams{
		Rows: 256, Cols: 256, Range: 16, Seed: 2024,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. The three correlation statistics of the paper.
	stats, err := lossycorr.Analyze(field, lossycorr.AnalysisOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimated global variogram range: %.2f (true: 16)\n", stats.GlobalRange())
	fmt.Printf("std of local variogram ranges:    %.2f\n", stats.LocalRangeStd())
	fmt.Printf("std of local SVD truncation:      %.2f\n\n", stats.LocalSVDStd())

	// 3. Compression ratios per compressor and error bound.
	fmt.Printf("%-11s", "eb")
	for _, name := range lossycorr.CompressorsFor(2) {
		fmt.Printf(" %12s", name)
	}
	fmt.Println()
	for _, eb := range lossycorr.PaperErrorBounds {
		fmt.Printf("%-11.0e", eb)
		for _, name := range lossycorr.CompressorsFor(2) {
			res, err := lossycorr.Measure(name, field, eb)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %12.2f", res.Ratio)
		}
		fmt.Println()
	}
}
