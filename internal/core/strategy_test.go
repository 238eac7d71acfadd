package core

import (
	"strings"
	"testing"
)

func TestRegistryHasNMFamily(t *testing.T) {
	names := Strategies()
	for _, want := range []string{"det", "mn", "pc", "pc+mn", "anderson"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Strategies() = %v missing %q", names, want)
		}
	}
}

func TestLookupStrategyAliasesAndCase(t *testing.T) {
	cases := map[string]string{
		"pc":         "pc",
		"PC":         "pc",
		"pc+mn":      "pc+mn",
		"pcmn":       "pc+mn",
		"pc-mn":      "pc+mn",
		"PC-MN":      "pc+mn",
		"PCMN":       "pc+mn",
		"anderson":   "anderson",
		"andersonnm": "anderson",
		"AndersonNM": "anderson",
		"  det ":     "det",
	}
	for in, want := range cases {
		s, err := LookupStrategy(in)
		if err != nil {
			t.Errorf("LookupStrategy(%q): %v", in, err)
			continue
		}
		if s.Name() != want {
			t.Errorf("LookupStrategy(%q).Name() = %q, want %q", in, s.Name(), want)
		}
	}
	if _, err := LookupStrategy("bogus"); err == nil || !strings.Contains(err.Error(), "registered:") {
		t.Errorf("LookupStrategy(bogus) = %v, want error listing registered strategies", err)
	}
}

func TestParseAlgorithmThroughRegistry(t *testing.T) {
	cases := map[string]Algorithm{
		"det": DET, "DET": DET,
		"mn": MN, "MN": MN,
		"pc": PC, "PC": PC,
		"pcmn": PCMN, "pc+mn": PCMN, "pc-mn": PCMN, "PCMN": PCMN, "PC+MN": PCMN,
		"anderson": AndersonNM, "andersonnm": AndersonNM, "AndersonNM": AndersonNM,
	}
	for in, want := range cases {
		got, err := ParseAlgorithm(in)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseAlgorithm("no-such-alg"); err == nil {
		t.Error("ParseAlgorithm accepted an unknown name")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		})
	}
	mustPanic("duplicate name", func() { Register(nmStrategy{PC, "pc"}) })
	mustPanic("alias repeated in one call", func() {
		Register(nmStrategy{PC, "dup-test"}, "dt", "dt")
	})
	mustPanic("alias equals own name", func() {
		Register(nmStrategy{PC, "dup-test2"}, "dup-test2")
	})
}

func TestStrategyInfosShape(t *testing.T) {
	infos := StrategyInfos()
	byName := map[string]StrategyInfo{}
	for _, in := range infos {
		byName[in.Name] = in
	}
	pcmn, ok := byName["pc+mn"]
	if !ok || !pcmn.Resumable || pcmn.Algorithm != "PC+MN" {
		t.Fatalf("pc+mn info = %+v, ok=%v", pcmn, ok)
	}
	wantAliases := map[string]bool{"pcmn": true, "pc-mn": true}
	for _, a := range pcmn.Aliases {
		delete(wantAliases, a)
	}
	if len(wantAliases) > 0 {
		t.Errorf("pc+mn aliases %v missing %v", pcmn.Aliases, wantAliases)
	}
}
