package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"chiron/internal/dag"
	"chiron/internal/obs"
)

// Handler returns the gateway's HTTP mux:
//
//	GET  /healthz                     liveness (200 until the process exits)
//	GET  /readyz                      readiness (503 once a drain begins)
//	GET  /metrics                     Prometheus text exposition (?exemplars=1 for OpenMetrics)
//	GET  /debug/flight                retained flight traces + adapt/burn annotations
//	GET  /debug/flight/trace?id=N     one retained trace as Chrome trace_event JSON
//	POST /debug/flight/force?n=K      retain the next K traces unconditionally
//	GET  /workflows                   registered workflow names
//	POST /workflows                   register/update (workflow | graph | builtin)
//	GET  /workflows/{name}            serving status
//	POST /workflows/{name}/plan       profile + PGP, activate the plan
//	GET  /workflows/{name}/plan       active plan JSON
//	POST /workflows/{name}/plan/rollback  restore the previous plan epoch
//	POST /workflows/{name}/invoke     execute (sync; ?async=1 detaches, ?trace=1 returns spans)
//	GET  /requests/{id}               async invocation result
func (a *App) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", a.handleReadyz)
	mux.HandleFunc("GET /metrics", a.handleMetrics)
	mux.HandleFunc("GET /debug/flight", a.handleFlightList)
	mux.HandleFunc("GET /debug/flight/trace", a.handleFlightTrace)
	mux.HandleFunc("POST /debug/flight/force", a.handleFlightForce)
	mux.HandleFunc("GET /workflows", a.handleList)
	mux.HandleFunc("POST /workflows", a.handleRegister)
	mux.HandleFunc("GET /workflows/{name}", a.handleStatus)
	mux.HandleFunc("POST /workflows/{name}/plan", a.handlePlan)
	mux.HandleFunc("GET /workflows/{name}/plan", a.handleGetPlan)
	mux.HandleFunc("POST /workflows/{name}/plan/rollback", a.handleRollback)
	mux.HandleFunc("POST /workflows/{name}/invoke", a.handleInvoke)
	mux.HandleFunc("GET /requests/{id}", a.handleAsyncResult)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr maps serving errors onto status codes: 404 unknown, 409 no
// plan / stale plan / name-hash collision, 429 + Retry-After on
// admission rejection, 503 while draining, 504 on request deadline, 400
// on malformed input, 500 rest.
func writeErr(w http.ResponseWriter, err error) {
	var ov *OverloadError
	switch {
	case errors.As(err, &ov):
		w.Header().Set("Retry-After", fmt.Sprintf("%d", ceilSeconds(ov.RetryAfter)))
		writeJSON(w, http.StatusTooManyRequests, map[string]interface{}{
			"error":          ov.Error(),
			"retry_after_ms": float64(ov.RetryAfter) / float64(time.Millisecond),
		})
	case errors.Is(err, ErrNotFound):
		writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
	case errors.Is(err, ErrNoPlan), errors.Is(err, ErrStalePlan), errors.Is(err, ErrNoHistory), errors.Is(err, ErrHashCollision):
		writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	case errors.Is(err, errBadRequest):
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	case isDeadline(err):
		writeJSON(w, http.StatusGatewayTimeout, map[string]string{"error": err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
	}
}

var errBadRequest = errors.New("serve: bad request")

func isDeadline(err error) bool {
	return errors.Is(err, context.DeadlineExceeded)
}

func (a *App) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Default is the classic 0.0.4 text format, which strict classic
	// parsers (obs.CheckProm) accept. ?exemplars=1 or an OpenMetrics
	// Accept header switches to the OpenMetrics rendering, whose bucket
	// exemplars link latency buckets to retained flight trace ids.
	if r.URL.Query().Get("exemplars") == "1" ||
		strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		_ = a.opt.Reg.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = a.opt.Reg.WriteProm(w)
}

func (a *App) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{"workflows": a.Workflows()})
}

// registerRequest is the POST /workflows body: exactly one of the
// fields. A staged workflow or a general DAG (levelled on ingest) both
// carry their behaviour specs inline; builtin names an evaluation
// workload.
type registerRequest struct {
	Workflow *dag.Workflow `json:"workflow,omitempty"`
	Graph    *dag.Graph    `json:"graph,omitempty"`
	Builtin  string        `json:"builtin,omitempty"`
}

func (a *App) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		writeErr(w, fmt.Errorf("%w: reading body: %v", errBadRequest, err))
		return
	}
	var req registerRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeErr(w, fmt.Errorf("%w: %v", errBadRequest, err))
		return
	}
	var created bool
	var name string
	switch {
	case req.Builtin != "":
		name = req.Builtin
		created, err = a.RegisterBuiltin(req.Builtin)
	case req.Graph != nil:
		var wf *dag.Workflow
		wf, err = req.Graph.Level()
		if err != nil {
			writeErr(w, fmt.Errorf("%w: %v", errBadRequest, err))
			return
		}
		name = wf.Name
		created, err = a.Register(wf)
	case req.Workflow != nil:
		name = req.Workflow.Name
		created, err = a.Register(req.Workflow)
	default:
		writeErr(w, fmt.Errorf("%w: body needs one of workflow|graph|builtin", errBadRequest))
		return
	}
	if err != nil {
		if errors.Is(err, ErrNotFound) || errors.Is(err, ErrHashCollision) {
			writeErr(w, err)
		} else {
			writeErr(w, fmt.Errorf("%w: %v", errBadRequest, err))
		}
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeJSON(w, code, map[string]interface{}{"workflow": name, "created": created})
}

func (a *App) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := a.WorkflowStatus(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

type planRequest struct {
	// SLO is a Go duration string ("300ms"); empty inherits workflow /
	// app default / auto.
	SLO string `json:"slo,omitempty"`
}

type planResponse struct {
	Workflow    string      `json:"workflow"`
	Version     int64       `json:"version"`
	PredictedMs float64     `json:"predicted_ms"`
	SLOMs       float64     `json:"slo_ms"`
	Plan        interface{} `json:"plan"`
}

func (a *App) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req planRequest
	body, _ := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if len(bytes.TrimSpace(body)) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeErr(w, fmt.Errorf("%w: %v", errBadRequest, err))
			return
		}
	}
	var slo time.Duration
	if req.SLO != "" {
		d, err := time.ParseDuration(req.SLO)
		if err != nil {
			writeErr(w, fmt.Errorf("%w: bad slo %q: %v", errBadRequest, req.SLO, err))
			return
		}
		slo = d
	}
	info, err := a.PlanWorkflow(r.PathValue("name"), slo)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, planResponse{
		Workflow:    info.Workflow,
		Version:     info.Version,
		PredictedMs: ms(info.Predicted),
		SLOMs:       ms(info.SLO),
		Plan:        info.Plan,
	})
}

// handleRollback restores the previous plan epoch. 409 when the
// workflow has no plan or no retired epoch to fall back to.
func (a *App) handleRollback(w http.ResponseWriter, r *http.Request) {
	info, err := a.RollbackPlan(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, planResponse{
		Workflow:    info.Workflow,
		Version:     info.Version,
		PredictedMs: ms(info.Predicted),
		SLOMs:       ms(info.SLO),
		Plan:        info.Plan,
	})
}

func (a *App) handleGetPlan(w http.ResponseWriter, r *http.Request) {
	info, err := a.ActivePlan(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, planResponse{
		Workflow:    info.Workflow,
		Version:     info.Version,
		PredictedMs: ms(info.Predicted),
		SLOMs:       ms(info.SLO),
		Plan:        info.Plan,
	})
}

func (a *App) handleInvoke(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if r.URL.Query().Get("async") == "1" {
		id, err := a.InvokeAsync(name)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]string{
			"id":         id,
			"status_url": "/requests/" + id,
		})
		return
	}
	var rec obs.Recorder
	var tr *obs.Trace
	if r.URL.Query().Get("trace") == "1" {
		tr = obs.NewTrace()
		rec = tr
	}
	// ?deadline_ms= gives the request a per-request deadline, exactly
	// like the UDP invoke header's DeadlineMs: admission orders it by
	// remaining slack and rejects it with 504 once expired.
	ctx := r.Context()
	if dl := r.URL.Query().Get("deadline_ms"); dl != "" {
		ms, err := strconv.ParseFloat(dl, 64)
		if err != nil || ms <= 0 {
			writeErr(w, fmt.Errorf("%w: bad deadline_ms %q", errBadRequest, dl))
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms*float64(time.Millisecond)))
		defer cancel()
	}
	res, err := a.Invoke(ctx, name, rec)
	if err != nil {
		writeErr(w, err)
		return
	}
	if tr == nil {
		writeJSON(w, http.StatusOK, res)
		return
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"result": res,
		"trace":  json.RawMessage(buf.Bytes()),
	})
}

func (a *App) handleAsyncResult(w http.ResponseWriter, r *http.Request) {
	res, done, err := a.AsyncResult(r.PathValue("id"))
	switch {
	case err != nil && !done:
		writeErr(w, err)
	case !done:
		writeJSON(w, http.StatusAccepted, map[string]string{"state": "running"})
	case err != nil:
		writeErr(w, err)
	default:
		writeJSON(w, http.StatusOK, res)
	}
}
