package gen_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dmp/internal/codegen"
	"dmp/internal/emu"
	"dmp/internal/gen"
	"dmp/internal/lang"
)

// TestResolvePresets: a preset selection resolves names in order, "all"
// anywhere in the list to every preset, and an unknown name to an error
// naming the available presets.
func TestResolvePresets(t *testing.T) {
	all := gen.PresetNames()
	names := func(confs []gen.ProgramConf) string {
		var out []string
		for _, c := range confs {
			out = append(out, c.Name)
		}
		return strings.Join(out, ",")
	}
	for _, tc := range []struct {
		in   []string
		want string
	}{
		{[]string{all[1], " " + all[0]}, all[1] + "," + all[0]},
		{[]string{"all"}, strings.Join(all, ",")},
		{[]string{all[0], "all", "no-such"}, strings.Join(all, ",")},
	} {
		confs, err := gen.ResolvePresets(tc.in)
		if err != nil || names(confs) != tc.want {
			t.Errorf("ResolvePresets(%q) = %s, %v; want %s", tc.in, names(confs), err, tc.want)
		}
	}
	for _, in := range [][]string{{"no-such"}, {""}, {"no-such", "all"}} {
		_, err := gen.ResolvePresets(in)
		if err == nil || !strings.Contains(err.Error(), strings.Join(all, ", ")) {
			t.Errorf("ResolvePresets(%q) error %v, want one naming %v", in, err, all)
		}
	}
}

// TestPresetsWellFormed drives every built-in preset across many seeds:
// every generated program must parse, pass the semantic checker, compile to
// a valid DISA binary, and (being terminating by construction) run to halt
// on its own generated input tape.
func TestPresetsWellFormed(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	for _, conf := range gen.Presets() {
		conf := conf
		t.Run(conf.Name, func(t *testing.T) {
			t.Parallel()
			if err := conf.Validate(); err != nil {
				t.Fatal(err)
			}
			for seed := uint64(0); seed < uint64(seeds); seed++ {
				p := gen.Build(conf, seed)
				f, err := lang.Parse(p.Source)
				if err != nil {
					t.Fatalf("seed %d: parse: %v\n%s", seed, err, p.Source)
				}
				if err := lang.Check(f); err != nil {
					t.Fatalf("seed %d: check: %v\n%s", seed, err, p.Source)
				}
				prog, err := codegen.CompileSource(p.Source)
				if err != nil {
					t.Fatalf("seed %d: compile: %v\n%s", seed, err, p.Source)
				}
				if err := prog.Validate(); err != nil {
					t.Fatalf("seed %d: validate: %v", seed, err)
				}
				for _, tapeRun := range []struct {
					name string
					tape []int64
				}{{"run", p.RunInput}, {"train", p.TrainInput}} {
					m := emu.New(prog, tapeRun.tape, 0)
					if _, err := m.Run(100_000_000); err != nil {
						t.Fatalf("seed %d: %s input: %v\n%s", seed, tapeRun.name, err, p.Source)
					}
				}
			}
		})
	}
}

// TestBuildDeterministic pins Build to (conf, seed): source and both tapes
// must be byte-identical across calls, and distinct seeds must differ.
func TestBuildDeterministic(t *testing.T) {
	conf := gen.Default()
	for seed := uint64(0); seed < 10; seed++ {
		a, b := gen.Build(conf, seed), gen.Build(conf, seed)
		if a.Source != b.Source {
			t.Fatalf("seed %d: source not deterministic", seed)
		}
		if !equalTapes(a.RunInput, b.RunInput) || !equalTapes(a.TrainInput, b.TrainInput) {
			t.Fatalf("seed %d: input tapes not deterministic", seed)
		}
		if a.Stats != b.Stats || a.Idiom != b.Idiom {
			t.Fatalf("seed %d: idiom stats not deterministic", seed)
		}
	}
	if gen.Build(conf, 1).Source == gen.Build(conf, 2).Source {
		t.Error("distinct seeds produced identical programs")
	}
	if equalTapes(gen.Build(conf, 1).RunInput, gen.Build(conf, 1).TrainInput) {
		t.Error("run and train tapes drawn from the same stream")
	}
}

// TestConfJSONRoundTrip serializes each preset through JSON and rebuilds the
// same program: (conf, seed) reproducibility must survive the manifest.
func TestConfJSONRoundTrip(t *testing.T) {
	for _, conf := range gen.Presets() {
		b, err := json.Marshal(conf)
		if err != nil {
			t.Fatalf("%s: marshal: %v", conf.Name, err)
		}
		var back gen.ProgramConf
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", conf.Name, err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("%s: round-tripped conf invalid: %v", conf.Name, err)
		}
		if gen.Build(conf, 7).Source != gen.Build(back, 7).Source {
			t.Fatalf("%s: round-tripped conf generates different program", conf.Name)
		}
		if conf.Hash() != back.Hash() {
			t.Fatalf("%s: conf hash changed across JSON round trip", conf.Name)
		}
	}
}

// TestPresetIdiomCoverage asserts each preset actually exercises the idioms
// it is named for, and that the corpus as a whole spans several dominant
// idiom classes (the rows of the population report).
func TestPresetIdiomCoverage(t *testing.T) {
	count := func(name string, f func(gen.IdiomStats) bool) int {
		conf, ok := gen.Preset(name)
		if !ok {
			t.Fatalf("missing preset %q", name)
		}
		n := 0
		for seed := uint64(0); seed < 40; seed++ {
			if f(gen.Build(conf, seed).Stats) {
				n++
			}
		}
		return n
	}
	if n := count("biased-branch", func(s gen.IdiomStats) bool {
		return s.ShortHammocks > 0 && s.BiasedConds > 0
	}); n < 30 {
		t.Errorf("biased-branch: only %d/40 programs have biased short hammocks", n)
	}
	if n := count("deep-hammock", func(s gen.IdiomStats) bool { return s.MaxHammockDepth >= 2 }); n < 20 {
		t.Errorf("deep-hammock: only %d/40 programs nest hammocks", n)
	}
	if n := count("loopy", func(s gen.IdiomStats) bool { return s.Loops > 0 }); n < 30 {
		t.Errorf("loopy: only %d/40 programs contain loops", n)
	}

	idioms := map[string]int{}
	for _, p := range gen.BuildCorpus(gen.Presets(), 100, 1) {
		idioms[p.Idiom]++
	}
	if len(idioms) < 4 {
		t.Errorf("100-program corpus spans only %d dominant idioms: %v", len(idioms), idioms)
	}
}

// TestValidateRejects exercises the conf validator's rejection paths.
func TestValidateRejects(t *testing.T) {
	mut := func(f func(*gen.ProgramConf)) gen.ProgramConf {
		c := gen.Default()
		f(&c)
		return c
	}
	cases := []struct {
		name string
		conf gen.ProgramConf
	}{
		{"no name", mut(func(c *gen.ProgramConf) { c.Name = "" })},
		{"inverted range", mut(func(c *gen.ProgramConf) { c.MainBudget = gen.IntRange{Min: 9, Max: 3} })},
		{"zero scalars", mut(func(c *gen.ProgramConf) { c.Scalars = gen.IntRange{} })},
		{"zero weights", mut(func(c *gen.ProgramConf) {
			c.AssignWeight, c.VarWeight, c.StoreWeight, c.OutWeight = 0, 0, 0, 0
			c.HammockWeight, c.LoopWeight, c.CallWeight = 0, 0, 0
		})},
		{"prob out of range", mut(func(c *gen.ProgramConf) { c.DiamondProb = 1.5 })},
		{"bias target out of range", mut(func(c *gen.ProgramConf) { c.BiasTargets = []float64{0, 0.5} })},
		{"zero loop trip", mut(func(c *gen.ProgramConf) { c.LoopTrip = gen.IntRange{Min: 0, Max: 4} })},
		{"tiny input max", mut(func(c *gen.ProgramConf) { c.InputMax = 1 })},
	}
	for _, tc := range cases {
		if err := tc.conf.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid conf", tc.name)
		}
	}
	if err := gen.Default().Validate(); err != nil {
		t.Errorf("default conf rejected: %v", err)
	}
}

// TestManifestRoundTrip writes a corpus manifest and rebuilds the corpus
// from it: every program must regenerate to its recorded hash, and the
// manifest bytes themselves must be deterministic.
func TestManifestRoundTrip(t *testing.T) {
	confs := gen.Presets()
	progs := gen.BuildCorpus(confs, 15, 3)
	m := gen.NewManifest(confs, 3, progs)

	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := gen.NewManifest(confs, 3, gen.BuildCorpus(confs, 15, 3)).Write(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("manifest bytes not reproducible across builds")
	}

	back, err := gen.ReadManifest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := back.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt) != len(progs) {
		t.Fatalf("rebuilt %d programs, want %d", len(rebuilt), len(progs))
	}
	for i := range progs {
		if rebuilt[i].Source != progs[i].Source {
			t.Fatalf("program %d (%s) differs after manifest round trip", i, progs[i].Name)
		}
	}

	// A drifted hash must be caught.
	back.Programs[0].SHA256 = back.Programs[1].SHA256
	if back.Programs[0].Seed == back.Programs[1].Seed {
		t.Fatal("test expects distinct seeds")
	}
	if _, err := back.Rebuild(); err == nil {
		t.Fatal("Rebuild accepted a drifted source hash")
	}
}

func equalTapes(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
