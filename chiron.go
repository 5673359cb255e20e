// Package chiron is a from-scratch Go reproduction of "Rethinking
// Deployment for Serverless Functions: A Performance-first Perspective"
// (SC '23): the Chiron deployment manager, its wrap abstraction, the PGP
// partitioning scheduler, the white-box latency Predictor, and every
// substrate its evaluation depends on (GIL-constrained runtimes, process
// forking, sandboxes, object stores, platform schedulers), all on a
// deterministic virtual-time engine.
//
// The quick path from a workflow to a deployment:
//
//	w := chiron.FINRA(50)                              // or build your own Workflow
//	dep, err := chiron.Deploy(w, 300*time.Millisecond) // profile + PGP + plan
//	res, err := dep.Invoke(1)                          // execute one request
//	fmt.Println(res.E2E, dep.Plan.NumWraps(), dep.Plan.TotalCPUs())
//
// Baseline platforms (ASF, OpenFaaS, SAND, Faastlane and variants) are
// available through System, and every figure/table of the paper can be
// regenerated with RunExperiment. See DESIGN.md for the architecture and
// EXPERIMENTS.md for paper-vs-measured results.
package chiron

import (
	"time"

	"chiron/internal/adapt"
	"chiron/internal/behavior"
	"chiron/internal/dag"
	"chiron/internal/dynamic"
	"chiron/internal/engine"
	"chiron/internal/experiments"
	"chiron/internal/live"
	"chiron/internal/metrics"
	"chiron/internal/model"
	"chiron/internal/node"
	"chiron/internal/pgp"
	"chiron/internal/platform"
	"chiron/internal/predict"
	"chiron/internal/profiler"
	"chiron/internal/render"
	"chiron/internal/workloads"
	"chiron/internal/wrap"
)

// ---- Workflow modelling ----

// Function describes one serverless function: its runtime, its solo-run
// execution trace (CPU and blocking segments), memory and data flow.
type Function = behavior.Spec

// Segment is one contiguous CPU or blocking span of a Function.
type Segment = behavior.Segment

// SegmentKind classifies a Segment.
type SegmentKind = behavior.SegmentKind

// Segment kinds.
const (
	CPU    = behavior.CPU
	Sleep  = behavior.Sleep
	DiskIO = behavior.DiskIO
	NetIO  = behavior.NetIO
)

// Runtime identifies a function's language runtime.
type Runtime = behavior.Runtime

// Supported runtimes. Python and NodeJS threads contend on a global
// interpreter lock; Java threads are truly parallel.
const (
	Python = behavior.Python
	NodeJS = behavior.NodeJS
	Java   = behavior.Java
)

// Workflow is a staged serverless application: a sequence of stages, each
// holding one or more parallel functions.
type Workflow = dag.Workflow

// Stage is one rank of a workflow: functions that may run in parallel.
type Stage = dag.Stage

// Graph is the DAG submission form of a workflow; Level converts it to
// stages.
type Graph = dag.Graph

// GraphNode is one vertex of a Graph.
type GraphNode = dag.Node

// NewWorkflow builds a validated workflow from explicit stages.
func NewWorkflow(name string, slo time.Duration, stages ...[]*Function) (*Workflow, error) {
	return dag.FromStages(name, slo, stages...)
}

// ---- Benchmarks ----

// FINRA returns the trade-validation benchmark with par parallel
// validators.
func FINRA(par int) *Workflow { return workloads.FINRA(par) }

// SocialNetwork returns the 4-stage, 10-function web-service benchmark.
func SocialNetwork() *Workflow { return workloads.SocialNetwork() }

// MovieReviewing returns the 4-stage, 9-function web-service benchmark.
func MovieReviewing() *Workflow { return workloads.MovieReviewing() }

// SLApp returns the 2-stage mixed CPU/disk/network benchmark.
func SLApp() *Workflow { return workloads.SLApp() }

// SLAppV returns the 5-stage SLApp variant.
func SLAppV() *Workflow { return workloads.SLAppV() }

// InJava clones a workflow onto the GIL-free Java runtime.
func InJava(w *Workflow) *Workflow { return workloads.InJava(w) }

// ---- Calibration ----

// Constants is the substrate calibration (timings, memory, pricing).
type Constants = model.Constants

// DefaultConstants returns the calibration derived from the paper's
// measurements.
func DefaultConstants() Constants { return model.Default() }

// ---- Profiling and prediction ----

// Profiles is a profiled workflow: the Predictor's and PGP's only view of
// function behaviour.
type Profiles = profiler.Set

// Profile runs the Chiron Profiler on every function of w: an untraced
// solo run plus a strace-style traced run whose block periods are
// extracted and rescaled (Section 3.2).
func Profile(w *Workflow) (Profiles, error) {
	return profiler.ProfileWorkflow(w, profiler.DefaultOptions())
}

// Predictor is the white-box latency model: Eq. (1)-(4) plus Algorithm 1's
// GIL simulation.
type Predictor = predict.Predictor

// NewPredictor builds a Predictor over profiled functions.
func NewPredictor(c Constants, p Profiles) *Predictor { return predict.New(c, p) }

// ---- Deployment plans ----

// DeploymentPlan maps every function to a (sandbox, process) location —
// the wrap abstraction's concrete form.
type DeploymentPlan = wrap.Plan

// Placement is one function's location within a plan.
type Placement = wrap.Loc

// SandboxConfig configures one wrap's sandbox.
type SandboxConfig = wrap.SandboxCfg

// PGPOptions parameterize the PGP scheduler.
type PGPOptions = pgp.Options

// PGPResult carries PGP's chosen plan, its predicted latency and the
// exploration trace.
type PGPResult = pgp.Result

// PGP styles.
const (
	Hybrid    = pgp.Hybrid
	ProcOnly  = pgp.ProcOnly
	PoolStyle = pgp.PoolStyle
)

// PlanPGP runs the PGP scheduler (Algorithm 2) directly.
func PlanPGP(w *Workflow, p Profiles, opt PGPOptions) (*PGPResult, error) {
	return pgp.Plan(w, p, opt)
}

// ---- Platforms and execution ----

// System is one deployable platform: ASF, OpenFaaS, SAND, Faastlane (and
// -T/+/-M/-P variants), Chiron (and -M/-P).
type System = platform.System

// Platform constructors.
var (
	ASF           = platform.ASF
	OpenFaaS      = platform.OpenFaaS
	SAND          = platform.SAND
	Faastlane     = platform.Faastlane
	FaastlaneT    = platform.FaastlaneT
	FaastlanePlus = platform.FaastlanePlus
	FaastlaneM    = platform.FaastlaneM
	FaastlaneP    = platform.FaastlaneP
	Chiron        = platform.Chiron
	ChironM       = platform.ChironM
	ChironP       = platform.ChironP
	AllSystems    = platform.All
	LookupSystem  = platform.Lookup
)

// Env is the execution environment (dispatch model, data path, fidelity).
type Env = engine.Env

// Result is one executed request's ground truth.
type Result = engine.Result

// Execute runs one request of w deployed per plan under env.
func Execute(w *Workflow, plan *DeploymentPlan, env Env) (*Result, error) {
	return engine.Run(w, plan, env)
}

// ExecuteMany runs n seeded requests and returns their latencies.
func ExecuteMany(w *Workflow, plan *DeploymentPlan, env Env, n int) ([]time.Duration, error) {
	return engine.RunMany(w, plan, env, n)
}

// ---- High-level convenience ----

// Deployment is a planned workflow ready to serve requests.
type Deployment struct {
	// Workflow is the deployed application.
	Workflow *Workflow
	// System is the platform that planned it.
	System *System
	// Plan is the concrete wrap deployment.
	Plan *DeploymentPlan
	// Profiles are the function profiles used for planning (nil for
	// profile-free baselines).
	Profiles Profiles
}

// Deploy profiles w and plans it with Chiron's PGP under the given SLO
// (zero = minimize latency), on the default calibration.
func Deploy(w *Workflow, slo time.Duration) (*Deployment, error) {
	return DeployOn(Chiron(DefaultConstants()), w, slo)
}

// DeployOn plans w on an arbitrary platform. Profiling is performed
// automatically for platforms that need it.
func DeployOn(sys *System, w *Workflow, slo time.Duration) (*Deployment, error) {
	set, err := Profile(w)
	if err != nil {
		return nil, err
	}
	plan, err := sys.Plan(w, set, slo)
	if err != nil {
		return nil, err
	}
	return &Deployment{Workflow: w, System: sys, Plan: plan, Profiles: set}, nil
}

// Invoke executes one request with the given jitter seed.
func (d *Deployment) Invoke(seed int64) (*Result, error) {
	env := d.System.Env()
	env.Seed = seed
	return engine.Run(d.Workflow, d.Plan, env)
}

// InvokeMany executes n seeded requests and returns their latencies.
func (d *Deployment) InvokeMany(seed int64, n int) ([]time.Duration, error) {
	env := d.System.Env()
	env.Seed = seed
	return engine.RunMany(d.Workflow, d.Plan, env, n)
}

// Resources reports the deployment's footprint: total CPUs, resident
// memory, sandbox count, and how many whole instances fit on one Table 2
// worker node.
func (d *Deployment) Resources() (cpus int, memMB float64, sandboxes, instancesPerNode int, err error) {
	c := DefaultConstants()
	ledgers, err := d.Plan.Ledgers(d.Workflow)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	for _, sb := range ledgers {
		memMB += sb.MemoryMB(c)
	}
	demand := node.DemandOf(c, ledgers)
	n := node.FromConstants(c).MaxInstances(demand)
	return d.Plan.TotalCPUs(), memMB, d.Plan.NumWraps(), n, nil
}

// PredictLatency estimates the deployment's end-to-end latency with the
// white-box Predictor (only for deployments planned with profiles).
func (d *Deployment) PredictLatency() (time.Duration, error) {
	p := predict.New(DefaultConstants(), d.Profiles)
	return p.Workflow(d.Workflow, d.Plan)
}

// ---- Metrics and experiments ----

// Mean, Percentile and ViolationRate expose the latency statistics used by
// the evaluation.
var (
	Mean          = metrics.Mean
	Percentile    = metrics.Percentile
	ViolationRate = metrics.ViolationRate
)

// ExperimentTable is a reproduced figure or table.
type ExperimentTable = render.Table

// ExperimentConfig parameterizes experiment reproduction.
type ExperimentConfig = experiments.Config

// Experiments lists the reproducible experiment IDs in paper order.
func Experiments() []string { return append([]string(nil), experiments.Order...) }

// Ablations lists the extra design-choice ablation experiment IDs.
func Ablations() []string { return append([]string(nil), experiments.Ablations...) }

// RunExperiment regenerates one of the paper's tables/figures ("fig13",
// "table1", ...).
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentTable, error) {
	return experiments.Run(id, cfg)
}

// DefaultExperimentConfig returns the standard experiment configuration.
func DefaultExperimentConfig() ExperimentConfig { return experiments.Default() }

// ---- Live execution ----

// LiveOptions configure a wall-clock run of a plan with real goroutines:
// a token-passing GIL, serialized forks, pool workers, and optional real
// Go code bound to function names.
type LiveOptions = live.Options

// LiveFn is real Go code bound to a function name for live execution.
type LiveFn = live.Fn

// LiveCtx is the context handed to bound functions (store access, spec).
type LiveCtx = live.Ctx

// LiveResult is one live request's measured outcome. Its Store is nil
// unless LiveOptions.Bindings binds a function; a nil store reads as
// empty (Get reports not found, Len is 0).
type LiveResult = live.Result

// RunLive executes one request of w under plan on the wall clock — the
// in-process equivalent of deploying the generated orchestrators. See
// package internal/live for semantics; results are non-deterministic
// (real scheduling) by design.
func RunLive(w *Workflow, plan *DeploymentPlan, opt LiveOptions) (*LiveResult, error) {
	if opt.Const.NodeCores == 0 {
		opt.Const = DefaultConstants()
	}
	return live.Run(w, plan, opt)
}

// ---- Adaptive re-planning (Section 3.4's periodic re-run) ----

// AdaptiveController serves a workflow under a PGP plan and re-profiles +
// re-plans automatically when observed latencies drift from prediction.
type AdaptiveController = adapt.Controller

// AdaptiveOptions configure the controller's SLO, window and triggers.
type AdaptiveOptions = adapt.Options

// WorkflowSource returns the workflow's current behaviour; the controller
// calls it on every (re-)plan.
type WorkflowSource = adapt.Source

// NewAdaptiveController profiles and plans the source's current behaviour
// and returns the self-adapting deployment manager.
func NewAdaptiveController(src WorkflowSource, opt AdaptiveOptions) (*AdaptiveController, error) {
	if opt.Const.NodeCores == 0 {
		opt.Const = DefaultConstants()
	}
	return adapt.New(src, opt)
}

// ---- Dynamic DAGs (Discussion/future-work extension) ----

// DynamicWorkflow is a workflow whose tail is chosen at runtime by a
// switch (e.g. Video-FFmpeg's upload deciding between split and
// simple_process).
type DynamicWorkflow = dynamic.Workflow

// DynamicBranch is one continuation a switch can select.
type DynamicBranch = dynamic.Branch

// DynamicDeployment is the pre-planned variant set for a dynamic
// workflow.
type DynamicDeployment = dynamic.Deployment

// PlanDynamic profiles the union of all branches and pre-plans every
// (head + branch) variant with PGP under the SLO.
func PlanDynamic(w *DynamicWorkflow, slo time.Duration) (*DynamicDeployment, error) {
	return dynamic.Plan(w, DefaultConstants(), slo)
}
