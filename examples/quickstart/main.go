// Quickstart: generate a synthetic mobility dataset, look at the points of
// interest an analyst can extract from it, then publish it through PRIVAPI
// and verify the stops are gone while the hotspots survive.
//
// Run with:
//
//	go run ./examples/quickstart
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
	// 1. A small synthetic city: 15 contributors tracked for a week.
	raw, city, err := apisense.GenerateMobility(apisense.MobilityConfig{
		Seed: 42, Users: 15, Days: 7,
	})
	if err != nil {
		return err
	}
	fmt.Println("raw dataset:", raw.Summarize())

	// 2. What an analyst sees in the raw data: stay-point extraction finds
	// everyone's home and workplace.
	extractor, err := apisense.NewStayPoints(apisense.StayPointConfig{})
	if err != nil {
		return err
	}
	attackRaw, err := apisense.NewPOIRecovery(extractor, 0, 0)
	if err != nil {
		return err
	}
	truth := make(map[string][]apisense.Point)
	for _, r := range city.Residents {
		truth[r.User] = r.TruePOIs()
	}
	before := attackRaw.Run(truth, raw)
	fmt.Printf("POIs recoverable from raw data:      %s\n", before)

	// 3. Publish through PRIVAPI: utility-driven strategy selection under
	// the default privacy floor.
	cfg := apisense.PrivacyConfig{
		Objective:    apisense.ObjectiveCrowdedPlaces,
		PseudonymKey: []byte("quickstart-release"),
	}
	mw, err := apisense.NewPrivacyMiddleware(cfg, city.Center)
	if err != nil {
		return err
	}
	release, selection, err := mw.PublishContext(context.Background(), raw)
	if err != nil {
		return err
	}
	fmt.Printf("PRIVAPI selected strategy:           %s\n", selection.Chosen)
	fmt.Println("released dataset:", release.Summarize())

	// 4. Attack the release with the attacker PRIVAPI's privacy floor
	// simulates (it sees pseudonyms, so the ground truth is re-keyed the
	// same way).
	pseud, err := apisense.NewPseudonymizer([]byte("quickstart-release"))
	if err != nil {
		return err
	}
	anonTruth := make(map[string][]apisense.Point, len(truth))
	for user, pois := range truth {
		anonTruth[pseud.Pseudonym(user)] = pois
	}
	attackRelease, err := apisense.NewPrivacyAttack(cfg)
	if err != nil {
		return err
	}
	after := attackRelease.Run(anonTruth, release)
	fmt.Printf("POIs recoverable from the release:   %s\n", after)

	// 5. Utility check: the crowded places survive.
	box, _ := raw.BBox()
	grid, err := apisense.NewGrid(box.Pad(500), 250)
	if err != nil {
		return err
	}
	overlap := apisense.TopKOverlap(
		apisense.UserDensity(raw, grid),
		apisense.UserDensity(release, grid), 15)
	fmt.Printf("top-15 crowded-cells overlap:        %.2f\n", overlap)
	fmt.Printf("\nsummary: exposure f1 %.2f -> %.2f while hotspot utility stays at %.2f\n",
		before.F1(), after.F1(), overlap)
	return nil
}
