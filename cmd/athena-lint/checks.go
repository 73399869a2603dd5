package main

// The check registry and the repo policy the checks share: which
// packages are simulation-scoped, which files are wall-clock boundaries,
// and which lock classes are "hot". The analysis machinery itself —
// module loading, the call graph, the lock-acquisition graph, and the
// //lint:allow suppression flow — lives in internal/lintkit.

import (
	"go/ast"
	"go/token"
	"path/filepath"

	"athena/internal/lintkit"
)

// The framework types and loaders, aliased so the checks read naturally.
type (
	Pass       = lintkit.Pass
	Diagnostic = lintkit.Diagnostic
	Analyzer   = lintkit.Analyzer
	Module     = lintkit.Module
	Package    = lintkit.Package
)

var (
	LoadModule  = lintkit.LoadModule
	LoadFixture = lintkit.LoadFixture
)

// Analyzers is the full check set, in reporting order.
var Analyzers = []*Analyzer{
	{Name: "walltime", Doc: "no wall-clock time (time.Now/Since/After/...) outside the designated boundary files; deterministic code threads a simclock.Clock", Run: runWalltime},
	{Name: "globalrand", Doc: "no global math/rand top-level functions outside boundary files; randomness comes from a seeded *rand.Rand", Run: runGlobalRand},
	{Name: "maporder", Doc: "no map-iteration-order-dependent output (prints or unsorted slice accumulation inside a map range) in simulation-reachable packages", Run: runMapOrder},
	{Name: "lockheld", Doc: "every mutex Lock/RLock has a same-function Unlock/RUnlock (deferred or direct)", Run: runLockHeld},
	{Name: "lockorder", Doc: "the inferred lock-acquisition graph (direct and through calls) must be acyclic and reproduce the declared order (Node < ShardRouter < Directory; tcpPeer < TCPTransport)", Run: runLockOrder},
	{Name: "metricsvalue", Doc: "metrics instruments are held as pointers (*metrics.Counter, ...) so a nil registry stays a no-op; value-typed fields defeat that contract", Run: runMetricsValue},
	{Name: "metricshotlookup", Doc: "no Registry.Counter/Gauge/Histogram lookups inside loops; resolve instruments once and hold the pointer", Run: runMetricsHotLookup},
	{Name: "golifetime", Doc: "goroutines launched in non-test code must be tied to a stop channel, context, WaitGroup, or a deferred Close of something they use", Run: runGoLifetime},
	{Name: "droppederr", Doc: "error returns from internal/transport and encode/decode calls must not be discarded", Run: runDroppedErr},
	{Name: "gobuse", Doc: "no encoding/gob imports; messages are framed by the explicit binary codec in internal/wire, whose sizes the bandwidth model prices", Run: runGobUse},
	{Name: "laneshare", Doc: "code reachable from kernel lane handlers (AtCall/AfterCall/AfterArg) must not write package-level vars or another instance's state outside a mailbox post or a held mutex", Run: runLaneShare},
	{Name: "floatorder", Doc: "no float accumulation (+=, x = x + v) inside a map range in lane-reachable code; map order makes the rounding, and the run, irreproducible", Run: runFloatOrder},
	{Name: "wireproto", Doc: "every registered wire type ID has an encode case and a decode case pairing it with its message struct, a WireSize method, a fuzz target, a round-trip test construction, and a handleMessage dispatch case; a Type* registry no codec switch names is itself a finding", Run: runWireProto},
	{Name: "deadoption", Doc: "every exported field of an option struct (an exported struct named Config or ending in Config or Opts) is set by some non-test file (bench/ included) outside the one declaring it, a write through a nested field setting each option on the way and a copy of another option field counting only if its source is set; an option nobody sets is a constant", Run: runDeadOption},
	{Name: lintkit.DirectiveCheck, Doc: "//lint:allow directives are well-formed (known check, non-empty reason) and actually suppress something", Run: nil}, // enforced by the runner
}

var knownChecks = func() map[string]bool {
	m := make(map[string]bool)
	for _, a := range Analyzers {
		m[a.Name] = true
	}
	return m
}()

// RunAnalyzers runs the selected checks (nil = all) over the packages,
// returning every diagnostic with suppressed findings marked (filter
// with lintkit.Unsuppressed for exit-status semantics).
func RunAnalyzers(mod *Module, pkgs []*Package, checks map[string]bool) []Diagnostic {
	return lintkit.RunAnalyzers(mod, pkgs, Analyzers, checks)
}

// mutexMethod decodes a call of the form X.Lock()/X.Unlock()/X.RLock()/
// X.RUnlock() where X is a sync.Mutex or sync.RWMutex.
func mutexMethod(p *Pass, call *ast.CallExpr) (method string, recv ast.Expr, ok bool) {
	return lintkit.MutexMethod(p.Pkg, call)
}

// --- scoping ---------------------------------------------------------------

// boundaryFile reports whether the file holding pos is one of the
// designated wall-clock boundary files, where real time and process-wide
// randomness are legal: internal/simclock (the clock abstraction itself),
// internal/athena/wall.go (real-time Timers), internal/transport (real
// sockets, real backoff), and cmd/athenad (the real-time daemon).
func boundaryFile(p *Pass, pos token.Pos) bool {
	if p.Pkg.Fixture {
		return false
	}
	switch p.PkgRel() {
	case "internal/simclock", "internal/transport", "cmd/athenad":
		return true
	case "internal/athena":
		return filepath.Base(p.Mod.Fset.Position(pos).Filename) == "wall.go"
	}
	return false
}

// simScoped reports whether the package is simulation-reachable: the
// packages whose behaviour must be a pure function of the seed because
// the figures and ablation tables are computed from them.
func simScoped(p *Pass) bool {
	if p.Pkg.Fixture {
		return true
	}
	switch p.PkgRel() {
	case "", // root package: schemes, simnet glue
		"internal/netsim",
		"internal/schedule",
		"internal/experiment",
		"internal/workload",
		"internal/gossip",
		"internal/athena":
		return true
	}
	return false
}
