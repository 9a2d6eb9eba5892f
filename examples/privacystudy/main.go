// Privacystudy: reproduce the paper's §3 comparison interactively — sweep
// protection mechanisms over one dataset and print the privacy/utility
// scorecard of each, showing why PRIVAPI refuses to hard-wire a single
// strategy.
//
// Run with:
//
//	go run ./examples/privacystudy
package main

import (
	"context"
	"fmt"
	"log"

	"apisense"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	raw, city, err := apisense.GenerateMobility(apisense.MobilityConfig{
		Seed: 11, Users: 20, Days: 10,
	})
	if err != nil {
		return err
	}
	fmt.Println("dataset:", raw.Summarize())
	fmt.Println()

	truth := make(map[string][]apisense.Point)
	for _, r := range city.Residents {
		truth[r.User] = r.TruePOIs()
	}
	attack, err := apisense.NewPrivacyAttack(apisense.PrivacyConfig{})
	if err != nil {
		return err
	}
	box, _ := raw.BBox()
	grid, err := apisense.NewGrid(box.Pad(500), 250)
	if err != nil {
		return err
	}
	rawDensity := apisense.UserDensity(raw, grid)

	specs := []string{
		"identity",
		"geoind:eps=0.05",
		"geoind:eps=0.01",
		"geoind:eps=0.001",
		"cloaking:cell=800,lat=45.764,lon=4.8357",
		"downsample:k=20",
		"simplify:tol=100",
		"smoothing:eps=50",
		"smoothing:eps=100",
		"smoothing:eps=200",
	}
	fmt.Printf("%-30s %8s %8s %8s %10s %12s\n",
		"mechanism", "recall", "prec", "f1", "hotspots", "distortion")
	for _, spec := range specs {
		m, err := apisense.MechanismFromSpec(spec)
		if err != nil {
			return err
		}
		release, err := apisense.Protect(context.Background(), m, raw)
		if err != nil {
			return err
		}
		res := attack.Run(truth, release)
		overlap := apisense.TopKOverlap(rawDensity, apisense.UserDensity(release, grid), 20)
		distortion := apisense.SpatialDistortion(raw, release)
		fmt.Printf("%-30s %7.1f%% %7.1f%% %8.3f %10.3f %11.0fm\n",
			m.Name(), res.Recall()*100, res.Precision()*100, res.F1(),
			overlap, distortion.Mean)
	}
	fmt.Println()
	fmt.Println("reading guide: the paper's claim C1 is the geoind rows (recall >= 60%")
	fmt.Println("at practical budgets); claim C2/C3 are the smoothing rows (f1 collapses")
	fmt.Println("while hotspot overlap stays high). No row wins every column -- that is")
	fmt.Println("exactly why PRIVAPI selects per release.")
	return nil
}
