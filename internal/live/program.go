package live

import (
	"context"
	"sort"

	"chiron/internal/behavior"
	"chiron/internal/dag"
	"chiron/internal/wrap"
)

// Program is a plan compiled against one workflow snapshot: everything
// about a request that does not depend on the request — plan validation,
// each stage's wrap/process/thread grouping, pool dispatch order —
// computed once, so Run only walks slices. A Program is immutable and
// safe for concurrent Runs; it must be recompiled when either the plan
// or the workflow's behaviour changes.
type Program struct {
	name       string // the workflow's
	reqName    string // the request span's
	stages     [][]wrapProg
	nFns       int
	nSandboxes int
}

// wrapProg is one wrap's share of one stage.
type wrapProg struct {
	sandbox int
	cfg     wrap.SandboxCfg
	// remote is the wrap's 1-based rank among the stage's remote wraps
	// (its invocation stride); 0 marks the orchestrator's own sandbox.
	remote int
	// procs are the process groups of a process-mode wrap, by index.
	procs []procProg
	// tasks and workers describe a pool wrap: tasks in dispatch order.
	tasks   []*behavior.Spec
	workers int
}

// procProg is one process of a wrap within one stage.
type procProg struct {
	proc int
	fns  []*behavior.Spec
	// resident: the sandbox's long-lived main process, never forked.
	resident bool
	// clone: the process main pays a thread start per function (a lone
	// function of a forked process runs on the main thread instead).
	clone bool
	// gil: the runtime is pseudo-parallel, so CPU spans hold the
	// process's interpreter lock.
	gil bool
}

// Compile validates plan against w and lowers it into a Program. It
// fails with wrap.ErrPlacement (or dag.ErrInvalid) exactly where
// plan.Validate and plan.StageWraps do.
func Compile(w *dag.Workflow, plan *wrap.Plan) (*Program, error) {
	if err := plan.Validate(w); err != nil {
		return nil, err
	}
	p := &Program{
		name:       w.Name,
		reqName:    "request " + w.Name,
		stages:     make([][]wrapProg, len(w.Stages)),
		nSandboxes: len(plan.Sandboxes),
	}
	for si := range w.Stages {
		wraps, err := plan.StageWraps(w, si)
		if err != nil {
			return nil, err
		}
		progs := make([]wrapProg, len(wraps))
		remote := 0
		for i, sw := range wraps {
			wp := &progs[i]
			wp.sandbox, wp.cfg = sw.Sandbox, sw.Cfg
			if sw.Sandbox != 0 {
				remote++
				wp.remote = remote
			}
			if sw.Cfg.Pool {
				wp.compilePool(sw)
			} else {
				wp.compileProcs(sw)
			}
		}
		p.stages[si] = progs
		p.nFns += len(w.Stages[si].Functions)
	}
	return p, nil
}

func (wp *wrapProg) compileProcs(sw wrap.StageWrap) {
	wp.procs = make([]procProg, len(sw.Procs))
	for i, g := range sw.Procs {
		wp.procs[i] = procProg{
			proc:     g.Proc,
			fns:      g.Functions,
			resident: g.Proc == 0 && !sw.Cfg.ForkPerRequest,
			clone:    len(g.Functions) > 1 || g.Proc == 0,
			gil:      g.Functions[0].Runtime.PseudoParallel(),
		}
	}
}

// compilePool flattens the wrap's functions into the dispatcher's
// submission order: stage order, or longest solo latency first (stable)
// when the plan asks for Chiron-P's skew mitigation — the order package
// gil prices, so the served plan is the predicted one.
func (wp *wrapProg) compilePool(sw wrap.StageWrap) {
	for _, g := range sw.Procs {
		wp.tasks = append(wp.tasks, g.Functions...)
	}
	if sw.Cfg.LongestFirst {
		sort.SliceStable(wp.tasks, func(i, j int) bool {
			return wp.tasks[i].SoloLatency() > wp.tasks[j].SoloLatency()
		})
	}
	wp.workers = sw.Cfg.Workers
	if wp.workers <= 0 || wp.workers > len(wp.tasks) {
		wp.workers = len(wp.tasks)
	}
}

// Run executes one request of w under plan.
func Run(w *dag.Workflow, plan *wrap.Plan, opt Options) (*Result, error) {
	return RunCtx(context.Background(), w, plan, opt)
}

// RunCtx compiles plan against w and runs the Program once; see
// Program.Run for how parent and Options.Timeout bound the request.
// Callers that serve many requests of one plan Compile once instead.
func RunCtx(parent context.Context, w *dag.Workflow, plan *wrap.Plan, opt Options) (*Result, error) {
	p, err := Compile(w, plan)
	if err != nil {
		return nil, err
	}
	return p.Run(parent, opt)
}
