package serve

import (
	"errors"
	"fmt"
)

// CheckInvariants verifies the serving plane's accounting at quiescence,
// when no request is admitted, queued or executing: every pool epoch
// (active and retained for rollback) has all its leases back, hedge
// arms reconcile with their outcomes, the warm-instance and resident-MB
// gauges equal what those pools hold, and the inflight and queue gauges
// and every admission queue are back at rest. It returns every
// violation found, joined, or nil. Calling it while requests are in
// flight reports their transient state as violations.
func (a *App) CheckInvariants() error {
	var errs []error
	var warmSum, residentSum int64
	for _, wf := range a.index.Load().byName {
		wf.mu.Lock()
		epochs := append([]*planState{wf.active.Load()}, wf.history...)
		wf.mu.Unlock()
		for _, ps := range epochs {
			if ps == nil {
				continue
			}
			ps.pool.mu.Lock()
			leased, warm, total := ps.pool.leased, len(ps.pool.warm), ps.pool.total
			ps.pool.mu.Unlock()
			warmSum += int64(warm)
			residentSum += int64(total) * int64(ps.pool.perInstMB)
			if leased != 0 || warm != total {
				errs = append(errs, fmt.Errorf("%s plan v%d pool: leased %d, warm %d of total %d (want 0 leased, warm == total)",
					wf.name, ps.version, leased, warm, total))
			}
		}
		wf.adm.mu.Lock()
		waiting, free := len(wf.adm.waiters), wf.adm.free
		wf.adm.mu.Unlock()
		if waiting != 0 || free != wf.adm.capacity {
			errs = append(errs, fmt.Errorf("%s admission: %d queued, %d of %d slots free (want 0 queued, all free)",
				wf.name, waiting, free, wf.adm.capacity))
		}
	}
	if n := a.m.warmGauge.Value(); n != warmSum {
		errs = append(errs, fmt.Errorf("warm instances gauge = %d, pools hold %d", n, warmSum))
	}
	if n := a.m.resident.Value(); n != residentSum {
		errs = append(errs, fmt.Errorf("resident MB gauge = %d, pools hold %d", n, residentSum))
	}
	if h, w, l := a.m.hedges.Value(), a.m.hedgeWins.Value(), a.m.hedgeWasted.Value(); h != w+l {
		errs = append(errs, fmt.Errorf("hedges %d != hedge_wins %d + hedge_wasted %d", h, w, l))
	}
	if n := a.hedgeInflight.Load(); n != 0 {
		errs = append(errs, fmt.Errorf("hedgeInflight = %d, want 0", n))
	}
	if n := a.m.inflight.Value(); n != 0 {
		errs = append(errs, fmt.Errorf("inflight gauge = %d, want 0", n))
	}
	if n := a.m.queued.Value(); n != 0 {
		errs = append(errs, fmt.Errorf("queue depth gauge = %d, want 0", n))
	}
	return errors.Join(errs...)
}
