// Routefinding: the paper's post-earthquake scenario (Sections II-A and
// VI), distributed. An emergency team at the hospital must move a patient
// to the medical camp over route A-B-C or route D-E-F. Road-side cameras
// at two relay sites supply the evidence; the decision logic is
//
//	(viableA & viableB & viableC) | (viableD & viableE & viableF)
//
// The example runs the same decision twice under label sharing (lvfl):
// the second query — issued by a different team at the relay site — is
// answered with tiny signed label records instead of megabyte pictures
// (records the relay cached as the first decision's labels passed it),
// demonstrating the "orders of magnitude" savings of Section VI-D.
//
// Run with: go run ./examples/routefinding
package main

import (
	"fmt"
	"log"
	"time"

	"athena"
)

// world is the post-earthquake ground truth: segment B collapsed, route
// D-E-F survived.
type world struct{}

func (world) LabelValue(label string, _ time.Time) bool {
	return label != "viableB"
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	start := time.Date(2026, 1, 1, 9, 0, 0, 0, time.UTC)
	net := athena.NewSimNetwork(start)

	// Topology: hospital -- relay -- north-cams, and relay -- south-cams.
	// 1 Mbps disaster-area links.
	const mbps = 125_000.0
	for _, link := range [][2]string{
		{"hospital", "relay"},
		{"relay", "north-cams"},
		{"relay", "south-cams"},
	} {
		if err := net.AddLink(link[0], link[1], mbps, 5*time.Millisecond); err != nil {
			return err
		}
	}

	// Camera stations: the north station sees route A-B-C, the south
	// station sees route D-E-F. Pictures are ~800 KB and stay valid for
	// two minutes (rubble does not move fast, but aftershocks happen).
	north := &athena.SourceDescriptor{
		Name:     athena.MustParseName("/city/north/cam"),
		Size:     800_000,
		Validity: 2 * time.Minute,
		Labels:   []string{"viableA", "viableB", "viableC"},
		Source:   "north-cams",
		ProbTrue: 0.7,
	}
	south := &athena.SourceDescriptor{
		Name:     athena.MustParseName("/city/south/cam"),
		Size:     700_000,
		Validity: 2 * time.Minute,
		Labels:   []string{"viableD", "viableE", "viableF"},
		Source:   "south-cams",
		ProbTrue: 0.7,
	}

	for _, cfg := range []athena.SimNodeConfig{
		{ID: "hospital", Scheme: athena.SchemeLVFL, World: world{}},
		{ID: "relay", Scheme: athena.SchemeLVFL, World: world{}},
		{ID: "north-cams", Scheme: athena.SchemeLVFL, World: world{}, Source: north},
		{ID: "south-cams", Scheme: athena.SchemeLVFL, World: world{}, Source: south},
	} {
		if err := net.AddNode(cfg); err != nil {
			return err
		}
	}

	expr := athena.ToDNF(athena.MustParseExpr(
		"(viableA & viableB & viableC) | (viableD & viableE & viableF)"))

	// First decision: issued at the hospital.
	hospital, err := net.Node("hospital")
	if err != nil {
		return err
	}
	if _, err := hospital.QueryInit(expr, time.Minute); err != nil {
		return err
	}
	if err := net.Run(time.Minute); err != nil {
		return err
	}
	firstBytes := net.BytesSent()
	res := hospital.Results()
	if len(res) == 0 {
		return fmt.Errorf("hospital decision did not finish")
	}
	fmt.Printf("hospital decision: %s in %v, moving %0.1f MB of pictures\n",
		res[0].Status, res[0].Finished.Sub(res[0].Issued).Round(time.Millisecond),
		float64(firstBytes)/1e6)
	fmt.Println("  (route A-B-C ruled out — segment B collapsed; route D-E-F viable)")

	// Second decision, same logic, issued at the relay. Labels computed
	// by the hospital were propagated back toward the cameras and cached;
	// the relay gets label records, not pictures.
	relay, err := net.Node("relay")
	if err != nil {
		return err
	}
	if _, err := relay.QueryInit(expr, time.Minute); err != nil {
		return err
	}
	if err := net.Run(time.Minute); err != nil {
		return err
	}
	secondBytes := net.BytesSent() - firstBytes
	res = relay.Results()
	if len(res) == 0 {
		return fmt.Errorf("relay decision did not finish")
	}
	fmt.Printf("relay decision:    %s in %v, moving %0.4f MB (label sharing)\n",
		res[0].Status, res[0].Finished.Sub(res[0].Issued).Round(time.Millisecond),
		float64(secondBytes)/1e6)
	if secondBytes > 0 {
		fmt.Printf("  label sharing saved %.0fx over refetching the pictures\n",
			float64(firstBytes)/float64(secondBytes))
	} else {
		fmt.Println("  the relay already held the hospital's label records: nothing crossed a link")
	}
	return nil
}
