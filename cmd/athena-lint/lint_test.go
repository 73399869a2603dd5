package main

// Golden-diagnostic tests for every analyzer plus the self-check that the
// repo itself lints clean. The module is loaded (and the stdlib
// type-checked) once and shared across all tests — that load dominates
// the suite's runtime.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"athena/internal/lintkit"
)

var (
	repoOnce sync.Once
	repoMod  *Module
	repoErr  error
)

func loadRepo(t *testing.T) *Module {
	t.Helper()
	repoOnce.Do(func() { repoMod, repoErr = LoadModule(".") })
	if repoErr != nil {
		t.Fatalf("load module: %v", repoErr)
	}
	return repoMod
}

// fixtureDiags loads one testdata package and formats its diagnostics the
// way the goldens store them: basename:line:col: check: message.
func fixtureDiags(t *testing.T, mod *Module, dir string, checks map[string]bool) []string {
	t.Helper()
	pkg, err := LoadFixture(mod, dir)
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	var out []string
	for _, d := range lintkit.Unsuppressed(RunAnalyzers(mod, []*Package{pkg}, checks)) {
		out = append(out, fmt.Sprintf("%s:%d:%d: %s: %s",
			filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Check, d.Message))
	}
	return out
}

func fixtureDirs(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("read testdata: %v", err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	sort.Strings(dirs)
	return dirs
}

// TestFixtureGoldens asserts the exact diagnostic set of every fixture
// package against its expect.txt.
func TestFixtureGoldens(t *testing.T) {
	mod := loadRepo(t)
	for _, name := range fixtureDirs(t) {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", name)
			wantRaw, err := os.ReadFile(filepath.Join(dir, "expect.txt"))
			if err != nil {
				t.Fatalf("read golden: %v", err)
			}
			want := strings.Split(strings.TrimRight(string(wantRaw), "\n"), "\n")
			got := fixtureDiags(t, mod, dir, nil)
			if len(got) == 0 {
				t.Fatalf("fixture %s produced no diagnostics; the corpus must trip its check", name)
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s\n--- want ---\n%s",
					strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}

// TestFixturesTripOwnCheck runs each fixture with only its namesake
// analyzer enabled, proving the checks are separately runnable and that
// each fixture exercises the check it documents.
func TestFixturesTripOwnCheck(t *testing.T) {
	mod := loadRepo(t)
	for _, name := range fixtureDirs(t) {
		t.Run(name, func(t *testing.T) {
			if !knownChecks[name] {
				t.Fatalf("fixture %s does not correspond to a check", name)
			}
			got := fixtureDiags(t, mod, filepath.Join("testdata", "src", name), map[string]bool{name: true})
			matched := false
			for _, line := range got {
				if strings.Contains(line, ": "+name+": ") {
					matched = true
				} else {
					t.Errorf("with only %s enabled, unexpected diagnostic: %s", name, line)
				}
			}
			if !matched {
				t.Errorf("fixture %s produced no %s diagnostics in isolation", name, name)
			}
		})
	}
}

// TestEveryCheckHasFixture keeps the corpus complete: a new analyzer must
// ship with a fixture package.
func TestEveryCheckHasFixture(t *testing.T) {
	have := make(map[string]bool)
	for _, name := range fixtureDirs(t) {
		have[name] = true
	}
	for _, a := range Analyzers {
		if !have[a.Name] {
			t.Errorf("check %s has no fixture package under testdata/src", a.Name)
		}
	}
}

// TestRepoSelfCheck is the gate: athena-lint reports zero findings on the
// repository itself. Every deliberate exception is expected to carry a
// //lint:allow annotation.
func TestRepoSelfCheck(t *testing.T) {
	mod := loadRepo(t)
	diags := lintkit.Unsuppressed(RunAnalyzers(mod, mod.Pkgs, nil))
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("athena-lint found %d violation(s) in the repo; fix them or annotate with //lint:allow <check> <reason>", len(diags))
	}
}

// TestLaneReachabilityCoversHandlers guards laneshare's soundness on the
// real repo: the root scan must find handler registrations (AtCall /
// AfterCall / AfterArg) and the reachable set must pull in the node's
// message-handling core. A zero-finding lint run is only meaningful if
// this set is non-trivial.
func TestLaneReachabilityCoversHandlers(t *testing.T) {
	mod := loadRepo(t)
	g := lintkit.BuildCallGraph(mod, mod.Pkgs)
	roots := laneRoots(g, mod.Pkgs)
	if len(roots) == 0 {
		t.Fatal("no lane handler roots found in the module; laneshare and floatorder are vacuous")
	}
	reach := g.Reachable(roots)
	want := map[string]bool{"handleMessage": false, "heartbeatTick": false, "pump": false}
	for n := range reach {
		if _, tracked := want[n.Name()]; tracked {
			want[n.Name()] = true
		}
	}
	for name, found := range want {
		if !found {
			t.Errorf("lane-reachable set misses %s; handler resolution lost the node core", name)
		}
	}
}

// TestWireProtoSeesRealCodec guards wireproto against vacuity on the
// real repo: the codec's switches are matched by shape, so a rewrite of
// internal/wire that the matcher no longer recognizes must fail here
// rather than leave a check with nothing to compare.
func TestWireProtoSeesRealCodec(t *testing.T) {
	mod := loadRepo(t)
	for _, pkg := range mod.Pkgs {
		if pkg.Path != mod.Path+"/internal/wire" {
			continue
		}
		blocks := wireTypeBlocks(pkg)
		if len(blocks) != 1 || len(blocks[0]) != 16 {
			t.Fatalf("wireproto sees %d Type* block(s) in %s, want one of 16 constants", len(blocks), pkg.Path)
		}
		encode, decode := collectCodecCases(pkg)
		if len(encode) != 16 || len(decode) != 16 {
			t.Errorf("wireproto sees %d encode and %d decode cases in %s, want 16 of each", len(encode), len(decode), pkg.Path)
		}
		return
	}
	t.Fatal("internal/wire is not among the loaded packages")
}

// TestInferredLockGraphMatchesDeclaredOrder pins the lockorder
// inference on the real repo: the inferred acquisition graph must be
// non-empty (the hot locks really do nest), acyclic, and every edge
// within a declared chain must run in declared order — the assertion
// that the hand-written table and reality agree.
func TestInferredLockGraphMatchesDeclaredOrder(t *testing.T) {
	mod := loadRepo(t)
	g := lintkit.BuildCallGraph(mod, mod.Pkgs)
	lg := lintkit.BuildLockGraph(g, hotLockOwner)
	if len(lg.Edges) == 0 {
		t.Fatal("inferred lock graph has no edges; the inference lost the nested acquisitions")
	}
	for _, e := range lg.Edges {
		from, to := hotLockRank[e.From], hotLockRank[e.To]
		if from.chain == to.chain && from.rank > to.rank {
			t.Errorf("inferred edge %s -> %s (in %s) inverts the declared order", e.From, e.To, e.FuncName)
		}
	}
	if cycles := lg.Cycles(); len(cycles) > 0 {
		for _, c := range cycles {
			t.Errorf("inferred lock cycle: %s", strings.Join(c.Classes, " -> "))
		}
	}
}
