package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"dmp/internal/bench"
	"dmp/internal/core"
	"dmp/internal/gen"
	"dmp/internal/harness"
	"dmp/internal/pipeline"
	"dmp/internal/sample"
	"dmp/internal/simcache"
	"dmp/internal/stats"
	"dmp/internal/workpool"
)

// Program is one corpus unit: a DML source plus its input tapes and
// attribution labels. FromBench and FromGen adapt the two corpora.
type Program struct {
	Name       string
	Preset     string
	Idiom      string
	Source     string
	RunInput   []int64
	TrainInput []int64
}

// FromBench builds the corpus from hand-written benchmarks (nil names = all
// 17) at the given input scale.
func FromBench(names []string, scale int) ([]Program, error) {
	if scale <= 0 {
		scale = 1
	}
	var bs []*bench.Benchmark
	if len(names) == 0 {
		bs = bench.All()
	} else {
		for _, name := range names {
			b := bench.ByName(name)
			if b == nil {
				return nil, fmt.Errorf("sweep: unknown benchmark %q", name)
			}
			bs = append(bs, b)
		}
	}
	out := make([]Program, len(bs))
	for i, b := range bs {
		out[i] = Program{
			Name:       b.Name,
			Source:     b.Source,
			RunInput:   b.Input(bench.RunInput, scale),
			TrainInput: b.Input(bench.TrainInput, scale),
		}
	}
	return out, nil
}

// FromGen adapts a generated corpus.
func FromGen(progs []*gen.Program) []Program {
	out := make([]Program, len(progs))
	for i, p := range progs {
		out[i] = Program{
			Name:       p.Name,
			Preset:     p.Preset,
			Idiom:      p.Idiom,
			Source:     p.Source,
			RunInput:   p.RunInput,
			TrainInput: p.TrainInput,
		}
	}
	return out
}

// Options configures a sweep run.
type Options struct {
	// Parallelism bounds concurrent work (0 = GOMAXPROCS); the engine still
	// shares the process-wide workpool helper budget.
	Parallelism int
	// Algo is the selection algorithm annotating each program ("heur" when
	// empty; see core.Algorithms).
	Algo string
	// MaxInsts caps simulated instructions per cell run and bounds the
	// profiling phase (it is also applied to every cell config, so a grid
	// cell cannot silently run unbounded).
	MaxInsts uint64
	// Cache memoizes cell simulations (nil = run uncached). Config
	// participates in keys via AppendCanonical, so each cell hits or misses
	// independently, and a re-run sweep is almost entirely cache hits.
	Cache *simcache.Cache
	// Sample routes cell simulations through the SMARTS sampled executor
	// when Enabled, making thousand-cell grids tractable.
	Sample sample.SampleConf
	// Skip, when non-nil, elides cells whose (program name, cell label) it
	// reports true for — the resume filter. Skipped cells produce no row.
	Skip func(program, cell string) bool
	// RowOut, when non-nil, receives every completed row immediately
	// (streaming, cancel-safe). The report accumulates rows regardless.
	RowOut *CSVWriter
	// Progress, when non-nil, is called after every completed or skipped
	// cell with running counts.
	Progress func(done, skipped, total int)
}

// Row is one (program, cell) measurement.
type Row struct {
	Program string     `json:"program"`
	Preset  string     `json:"preset,omitempty"`
	Idiom   string     `json:"idiom,omitempty"`
	Cell    string     `json:"cell"`
	Coord   []stats.KV `json:"coord"`
	IPC     float64    `json:"ipc"`
	// IPCErr is the confidence-interval half-width of a sampled estimate
	// (0 for full-fidelity runs).
	IPCErr       float64 `json:"ipc_err,omitempty"`
	Cycles       int64   `json:"cycles"`
	Retired      uint64  `json:"retired"`
	MPKI         float64 `json:"mpki"`
	FlushesPerKI float64 `json:"flushes_per_ki"`
	DpredEntries uint64  `json:"dpred_entries"`
	Sampled      bool    `json:"sampled,omitempty"`
	// Stats is the full statistics record, carried in the JSON report so a
	// row answers any follow-up question without re-running the cell.
	Stats pipeline.Stats `json:"stats"`
}

// Report is the full sweep outcome.
type Report struct {
	Algo     string   `json:"algo"`
	Axes     []Axis   `json:"axes"`
	Programs []string `json:"programs"`
	Cells    int      `json:"cells"`
	Skipped  int      `json:"skipped"`
	Sampled  bool     `json:"sampled,omitempty"`
	// Rows holds completed rows in deterministic (program, cell) order.
	Rows []Row `json:"rows"`
	// Marginals is the per-axis IPC aggregation (stats.AxisMarginals) and
	// Best the winning cell per group — idiom when the corpus carries idiom
	// attribution, program name otherwise.
	Marginals []stats.AxisLevel `json:"marginals"`
	Best      []stats.GroupBest `json:"best"`
}

// Run evaluates the corpus × grid product. Per program, the config-invariant
// phases run once (harness.PrepareSource); the program's cells then run in
// groups (cellGroups), one harness.Prepared.SimulateCells call each, and
// programs and groups fan out over the workpool and complete in arbitrary
// order (RowOut sees completion order; the report's Rows are
// deterministic). A cancelled context aborts at the next phase/group
// boundary; completed rows remain valid, in-flight simulations are never
// memoized (the simcache contract), so a resumed sweep recomputes exactly
// the missing cells.
func Run(ctx context.Context, progs []Program, grid *GridSpec, opts Options) (*Report, error) {
	cells, err := grid.Cells()
	if err != nil {
		return nil, err
	}
	if len(progs) == 0 {
		return nil, fmt.Errorf("sweep: empty corpus")
	}
	if opts.Algo == "" {
		opts.Algo = "heur"
	}
	if err := core.CheckAlgorithm(opts.Algo); err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}

	rep := &Report{
		Algo:    opts.Algo,
		Axes:    grid.Axes,
		Cells:   len(cells),
		Sampled: opts.Sample.Enabled,
	}
	for _, p := range progs {
		rep.Programs = append(rep.Programs, p.Name)
	}

	// rows[programIdx*len(cells)+cellIdx]; nil = skipped or failed.
	rows := make([]*Row, len(progs)*len(cells))
	var mu sync.Mutex
	var done, skipped int
	emit := func(slot int, r *Row, skip bool) error {
		mu.Lock()
		defer mu.Unlock()
		if skip {
			skipped++
		} else {
			rows[slot] = r
			done++
		}
		if opts.Progress != nil {
			opts.Progress(done, skipped, len(progs)*len(cells))
		}
		if r != nil && opts.RowOut != nil {
			return opts.RowOut.WriteRow(grid.Axes, r)
		}
		return nil
	}

	evalOpts := harness.EvalOptions{Cache: opts.Cache, MaxInsts: opts.MaxInsts, Sample: opts.Sample}

	err = workpool.RunIndexed(ctx, len(progs), opts.Parallelism,
		func(i int) string { return progs[i].Name }, nil, func(pi int) error {
			p := progs[pi]
			todo := pendingCells(p, cells, opts, func(ci int) error { return emit(pi*len(cells)+ci, nil, true) })
			if len(todo) == 0 {
				return nil
			}
			prep, err := prepare(ctx, p, opts.Algo, evalOpts)
			if err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
			groups := cellGroups(todo, opts.Sample.Enabled, len(progs), opts.Parallelism)
			return workpool.RunIndexed(ctx, len(groups), opts.Parallelism,
				func(i int) string { return p.Name + " " + groupLabel(cells, groups[i]) }, nil, func(gi int) error {
					g := groups[gi]
					cs := make([]Cell, len(g))
					for j, ci := range g {
						cs[j] = cells[ci]
					}
					rows, err := simulateCells(ctx, prep, p, cs, evalOpts)
					if err != nil {
						return fmt.Errorf("%s %s: %w", p.Name, groupLabel(cells, g), err)
					}
					for j, ci := range g {
						if err := emit(pi*len(cells)+ci, rows[j], false); err != nil {
							return err
						}
					}
					return nil
				})
		})
	if err != nil {
		return nil, err
	}

	rep.Skipped = skipped
	for _, r := range rows {
		if r != nil {
			rep.Rows = append(rep.Rows, *r)
		}
	}
	rep.aggregate()
	return rep, nil
}

// pendingCells applies the skip filter, reporting skips through onSkip.
func pendingCells(p Program, cells []Cell, opts Options, onSkip func(int) error) []int {
	todo := make([]int, 0, len(cells))
	for ci, c := range cells {
		if opts.Skip != nil && opts.Skip(p.Name, c.Label()) {
			_ = onSkip(ci)
			continue
		}
		todo = append(todo, ci)
	}
	return todo
}

func prepare(ctx context.Context, p Program, algo string, opts harness.EvalOptions) (*harness.Prepared, error) {
	prep, err := harness.PrepareSource(ctx, p.Name, p.Source, p.RunInput, p.TrainInput, algo, opts)
	if err != nil {
		return nil, err
	}
	prep.Preset, prep.Idiom = p.Preset, p.Idiom
	return prep, nil
}

// cellGroups splits a program's pending cells into the groups one
// SimulateCells call runs. Full-fidelity cells share nothing, so each is its
// own group and the cells fan out over the pool. Sampled cells share their
// functional warming, so they form as few groups as keep par workers busy:
// one per program when the corpus alone fills the pool.
func cellGroups(todo []int, sampled bool, progs, par int) [][]int {
	n := len(todo)
	if sampled {
		if par <= 0 {
			par = runtime.GOMAXPROCS(0)
		}
		n = min(n, (par+progs-1)/progs)
	}
	groups := make([][]int, n)
	for i, ci := range todo {
		groups[i%n] = append(groups[i%n], ci)
	}
	return groups
}

// groupLabel names a group of cells in errors: its first cell's label, and
// how many more it holds.
func groupLabel(cells []Cell, g []int) string {
	if len(g) == 1 {
		return cells[g[0]].Label()
	}
	return fmt.Sprintf("%s (+%d cells)", cells[g[0]].Label(), len(g)-1)
}

// simulateCells runs the per-cell phase for a group of cells and shapes
// their rows. Each cell's config is used as-is except for MaxInsts, which
// the sweep applies globally.
func simulateCells(ctx context.Context, prep *harness.Prepared, p Program, cs []Cell, opts harness.EvalOptions) ([]*Row, error) {
	cfgs := make([]pipeline.Config, len(cs))
	for i, c := range cs {
		cfgs[i] = c.Config
		if opts.MaxInsts != 0 && cfgs[i].MaxInsts == 0 {
			cfgs[i].MaxInsts = opts.MaxInsts
		}
	}
	sts, err := prep.SimulateCells(ctx, cfgs, opts)
	if err != nil {
		return nil, err
	}
	rows := make([]*Row, len(cs))
	for i, c := range cs {
		st := sts[i]
		rows[i] = &Row{
			Program:      p.Name,
			Preset:       p.Preset,
			Idiom:        p.Idiom,
			Cell:         c.Label(),
			Coord:        c.Coord,
			IPC:          st.IPC(),
			Cycles:       st.Cycles,
			Retired:      st.Retired,
			MPKI:         st.MPKI(),
			FlushesPerKI: st.FlushesPerKI(),
			DpredEntries: st.DpredEntries,
			Sampled:      opts.Sample.Enabled,
			Stats:        st,
		}
	}
	return rows, nil
}

// aggregate computes the cross-cell views: per-axis IPC marginals and the
// best cell per group (idiom when available, else program).
func (rep *Report) aggregate() {
	points := make([]stats.SweepPoint, 0, len(rep.Rows))
	for _, r := range rep.Rows {
		group := r.Idiom
		if group == "" {
			group = r.Program
		}
		points = append(points, stats.SweepPoint{Group: group, Coord: r.Coord, Value: r.IPC})
	}
	rep.Marginals = stats.AxisMarginals(points)
	rep.Best = stats.BestPerGroup(points)
}
