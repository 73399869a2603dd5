// Package metricsvalue is a fixture corpus for the metricsvalue check:
// instruments held by value instead of as nil-safe pointers.
package metricsvalue

import "athena/internal/metrics"

// statsBad embeds an instrument by value: violation.
type statsBad struct {
	hits metrics.Counter
}

// statsGood holds the nil-safe pointer a Registry hands out: fine.
type statsGood struct {
	hits *metrics.Counter
}

// liveGauge is a value-typed instrument variable: violation.
var liveGauge metrics.Gauge

// Touch keeps the fixture types referenced.
func Touch(b *statsBad, g *statsGood) {
	b.hits.Inc()
	g.hits.Inc()
	liveGauge.SetMax(1)
}
