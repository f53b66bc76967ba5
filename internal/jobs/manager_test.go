package jobs

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dlion/internal/obs"
	"dlion/internal/queue"
)

// testManager builds a manager over a fresh in-process broker with fast
// supervision, sized for tiny test jobs.
func testManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	b := queue.NewBroker()
	t.Cleanup(func() { b.Close() })
	cfg.Broker = b
	if cfg.Poll == 0 {
		cfg.Poll = 10 * time.Millisecond
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	t.Cleanup(m.Close)
	return m
}

// tinySpec is a job small enough to finish in well under a second.
func tinySpec(system string) Spec {
	return Spec{System: system, Workers: 2, MaxIters: 3, Scale: 0.001, LBS: 4}
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, m *Manager, id string, want State, timeout time.Duration) *Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		j, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if j.State == want {
			return j
		}
		if j.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, j.State, j.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s after %v, want %s", id, j.State, timeout, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestJobRunsToCompletion(t *testing.T) {
	m := testManager(t, Config{})
	j, err := m.Submit(tinySpec("baseline"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	done := waitState(t, m, j.ID, StateCompleted, 30*time.Second)

	if done.FinalAcc <= 0 {
		t.Errorf("final accuracy %g, want > 0", done.FinalAcc)
	}
	if len(done.Iters) != 2 {
		t.Fatalf("iters %v, want 2 entries", done.Iters)
	}
	for i, it := range done.Iters {
		if it < done.Spec.MaxIters {
			t.Errorf("worker %d stopped at iter %d, want >= %d", i, it, done.Spec.MaxIters)
		}
	}
	if len(done.Workers) != 2 {
		t.Fatalf("reports %d, want 2", len(done.Workers))
	}
	for _, rep := range done.Workers {
		if rep.Job != j.ID {
			t.Errorf("report for worker %d labelled %q, want %q", rep.ID, rep.Job, j.ID)
		}
	}
}

// TestJobMetricsWhileTraining reads the monitor while the job still
// trains: every worker's report is the supervisor's last poll of it — job
// labelled, carrying the gradients it sent, at the record's iteration.
func TestJobMetricsWhileTraining(t *testing.T) {
	m := testManager(t, Config{})
	spec := tinySpec("baseline")
	spec.MaxIters = 50_000 // far beyond what the test window allows
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, m, j.ID, StateTraining, 30*time.Second)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		jm, err := m.JobMetrics(j.ID)
		if err != nil {
			t.Fatalf("JobMetrics: %v", err)
		}
		if jm.State != StateTraining {
			t.Fatalf("job %s while reading its metrics, want training", jm.State)
		}
		if len(jm.Workers) != spec.Workers || len(jm.Iters) != spec.Workers {
			t.Fatalf("%d reports and %d iteration counts, want %d", len(jm.Workers), len(jm.Iters), spec.Workers)
		}
		sending := true
		for i, rep := range jm.Workers {
			if rep.ID != i || rep.Job != j.ID || rep.Iters != jm.Iters[i] {
				t.Fatalf("worker %d report id %d job %q iters %d, want %d %q %d",
					i, rep.ID, rep.Job, rep.Iters, i, j.ID, jm.Iters[i])
			}
			sending = sending && rep.SentMsgs["gradient"] > 0
		}
		if sending {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no live report shows gradients sent: %+v", jm.Workers)
		}
	}
	if _, err := m.Halt(j.ID); err != nil {
		t.Fatalf("Halt: %v", err)
	}
	waitState(t, m, j.ID, StateHalted, 10*time.Second)
}

func TestSubmitValidation(t *testing.T) {
	m := testManager(t, Config{})
	bad := []Spec{
		{System: "", Workers: 2, MaxIters: 3},
		{System: "no-such-system", Workers: 2, MaxIters: 3},
		{System: "baseline", Workers: 0, MaxIters: 3},
		{System: "baseline", Workers: 2, MaxIters: 0},
		{System: "baseline", Workers: 2, MaxIters: 3, Quant: "i4"},
		{System: "baseline", Workers: 2, MaxIters: 3, Tenant: "a b"},
		{System: "baseline", Workers: 4, Slots: 2, MaxIters: 3},
	}
	for _, s := range bad {
		if _, err := m.Submit(s); err == nil {
			t.Errorf("Submit(%+v) accepted, want validation error", s)
		}
	}
}

func TestTenantQuota(t *testing.T) {
	// MaxConcurrent 1 keeps the second job queued (non-terminal), so the
	// third submission must trip the quota of 2.
	m := testManager(t, Config{MaxConcurrent: 1, TenantQuota: 2})
	if _, err := m.Submit(tinySpec("baseline")); err != nil {
		t.Fatalf("job 1: %v", err)
	}
	if _, err := m.Submit(tinySpec("baseline")); err != nil {
		t.Fatalf("job 2: %v", err)
	}
	_, err := m.Submit(tinySpec("baseline"))
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("job 3 error %v, want ErrQuotaExceeded", err)
	}
	// A different tenant is unaffected.
	other := tinySpec("baseline")
	other.Tenant = "team-b"
	if _, err := m.Submit(other); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
}

func TestQueueFull(t *testing.T) {
	m := testManager(t, Config{MaxConcurrent: 1, QueueDepth: 1, TenantQuota: 64})
	// One running (eventually), one queued; queue depth 1 is then full once
	// both submissions landed in it. Depth-1 queue: the third-ish submit in
	// quick succession must see a full queue before the scheduler drains it.
	var sawFull bool
	for i := 0; i < 8; i++ {
		_, err := m.Submit(tinySpec("baseline"))
		if errors.Is(err, ErrQueueFull) {
			sawFull = true
			break
		}
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if !sawFull {
		t.Fatal("never observed ErrQueueFull with QueueDepth=1")
	}
}

func TestHaltQueuedJob(t *testing.T) {
	m := testManager(t, Config{MaxConcurrent: 1, TenantQuota: 8})
	first, err := m.Submit(tinySpec("baseline"))
	if err != nil {
		t.Fatalf("job 1: %v", err)
	}
	second, err := m.Submit(tinySpec("baseline"))
	if err != nil {
		t.Fatalf("job 2: %v", err)
	}
	// The second job waits behind the first; halting it while queued is
	// immediate.
	j, err := m.Halt(second.ID)
	if err != nil {
		t.Fatalf("Halt: %v", err)
	}
	if j.State != StateHalted {
		t.Fatalf("state %s, want halted", j.State)
	}
	// Halting a terminal job is a conflict.
	if _, err := m.Halt(second.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("second halt error %v, want ErrTerminal", err)
	}
	// The first still completes.
	waitState(t, m, first.ID, StateCompleted, 30*time.Second)
}

func TestHaltTrainingJob(t *testing.T) {
	m := testManager(t, Config{})
	spec := tinySpec("baseline")
	spec.MaxIters = 50_000 // far beyond what the test window allows
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, m, j.ID, StateTraining, 30*time.Second)
	if _, err := m.Halt(j.ID); err != nil {
		t.Fatalf("Halt: %v", err)
	}
	got := waitState(t, m, j.ID, StateHalted, 10*time.Second)
	if got.Error == "" {
		t.Error("halted job has empty Error reason")
	}
}

func TestCrashRestartCompletes(t *testing.T) {
	// The tight liveness timeout keeps the blocked peer's recovery (routing
	// around the crashed worker while it restarts) fast in the test window.
	m := testManager(t, Config{MaxRestarts: 3, LivenessTimeout: 0.2})
	spec := tinySpec("baseline")
	spec.MaxIters = 40 // long enough to catch it mid-flight
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, m, j.ID, StateTraining, 30*time.Second)
	if err := m.CrashWorker(j.ID, 0); err != nil {
		t.Fatalf("CrashWorker: %v", err)
	}
	done := waitState(t, m, j.ID, StateCompleted, 60*time.Second)
	if done.Restarts < 1 {
		t.Errorf("restarts %d, want >= 1", done.Restarts)
	}
	if done.FinalAcc <= 0 {
		t.Errorf("final accuracy %g, want > 0", done.FinalAcc)
	}
}

func TestRestartBudgetExhaustionFailsJob(t *testing.T) {
	m := testManager(t, Config{MaxRestarts: 1})
	spec := tinySpec("baseline")
	spec.MaxIters = 50_000
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, m, j.ID, StateTraining, 30*time.Second)
	// Crash past the budget: each crash needs the worker back up first.
	deadline := time.Now().Add(30 * time.Second)
	for {
		got, err := m.Get(j.ID)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if got.State == StateFailed {
			if got.Error == "" {
				t.Error("failed job has empty Error")
			}
			return
		}
		if got.State.Terminal() {
			t.Fatalf("job ended %s, want failed", got.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never failed after repeated crashes")
		}
		m.CrashWorker(j.ID, 0) // error (not running yet) is fine; retry
		time.Sleep(20 * time.Millisecond)
	}
}

func TestCrashUnknownJob(t *testing.T) {
	m := testManager(t, Config{})
	if err := m.CrashWorker("job-999", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("error %v, want ErrNotFound", err)
	}
}

func TestStorePersistsAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	st, err := NewStore(path)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	m := testManager(t, Config{Store: st})
	j, err := m.Submit(tinySpec("baseline"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	done := waitState(t, m, j.ID, StateCompleted, 30*time.Second)
	m.Close()

	// A new store over the same file still serves the finished record.
	st2, err := NewStore(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, err := st2.Get(j.ID)
	if err != nil {
		t.Fatalf("Get after reopen: %v", err)
	}
	if got.State != StateCompleted || got.FinalAcc != done.FinalAcc {
		t.Errorf("reloaded record %s acc %g, want %s acc %g",
			got.State, got.FinalAcc, done.State, done.FinalAcc)
	}
	// And a fresh id sequence continues past the persisted one.
	if id := st2.NextID(); id == j.ID {
		t.Errorf("NextID reissued %s", id)
	}
}

func TestStoreMarksInterruptedJobsFailed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	st, err := NewStore(path)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	j := &Job{ID: "job-1", State: StateTraining, Spec: tinySpec("baseline")}
	if err := st.Put(j); err != nil {
		t.Fatalf("Put: %v", err)
	}
	st2, err := NewStore(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, err := st2.Get("job-1")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got.State != StateFailed || got.Error == "" {
		t.Errorf("interrupted job reloaded as %s (%q), want failed with reason",
			got.State, got.Error)
	}
}

func TestManagerCloseHaltsActiveJobs(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	m, err := NewManager(Config{Broker: b, Poll: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	spec := tinySpec("baseline")
	spec.MaxIters = 50_000
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, m, j.ID, StateTraining, 30*time.Second)
	m.Close()
	got, err := m.Get(j.ID)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got.State != StateHalted {
		t.Errorf("state after Close %s, want halted", got.State)
	}
	if _, err := m.Submit(tinySpec("baseline")); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close error %v, want ErrClosed", err)
	}
}

func TestJobsMetricsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	m := testManager(t, Config{Metrics: reg, MaxConcurrent: 1, TenantQuota: 1})
	j, err := m.Submit(tinySpec("baseline"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := m.Submit(tinySpec("baseline")); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("quota error %v", err)
	}
	waitState(t, m, j.ID, StateCompleted, 30*time.Second)
	snap := reg.Snapshot()
	if snap["jobs.submitted"] != 1 {
		t.Errorf("jobs.submitted = %d, want 1", snap["jobs.submitted"])
	}
	if snap["jobs.rejected"] != 1 {
		t.Errorf("jobs.rejected = %d, want 1", snap["jobs.rejected"])
	}
	if snap["jobs.completed"] != 1 {
		t.Errorf("jobs.completed = %d, want 1", snap["jobs.completed"])
	}
}

// TestMonitorDuringDeploy hammers the job monitor and the chaos hook through
// the queued/deploying window: neither may panic or race (under -race) while
// the worker group is still half-built, and the job must still complete.
func TestMonitorDuringDeploy(t *testing.T) {
	m := testManager(t, Config{MaxRestarts: 100})
	j, err := m.Submit(tinySpec("baseline"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for {
		cur, err := m.Get(j.ID)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if cur.State != StateQueued && cur.State != StateDeploying {
			break
		}
		jm, err := m.JobMetrics(j.ID)
		if err != nil {
			t.Fatalf("JobMetrics while %s: %v", cur.State, err)
		}
		for _, rep := range jm.Workers {
			if rep.Job != j.ID {
				t.Fatalf("report labelled %q, want %q", rep.Job, j.ID)
			}
		}
		// Rejected while no fully-deployed group exists; crashes that land
		// just after training starts are absorbed by the big restart budget.
		m.CrashWorker(j.ID, 0)
	}
	waitState(t, m, j.ID, StateCompleted, 30*time.Second)
}

// TestHaltImmediatelyAfterSubmit races Halt against the scheduler picking
// the job up: whichever side wins, the job must end halted — never trained
// to completion after Halt reported success.
func TestHaltImmediatelyAfterSubmit(t *testing.T) {
	m := testManager(t, Config{MaxConcurrent: 1})
	for i := 0; i < 5; i++ {
		j, err := m.Submit(tinySpec("baseline"))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if _, err := m.Halt(j.ID); err != nil {
			t.Fatalf("Halt: %v", err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			cur, err := m.Get(j.ID)
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			if cur.State.Terminal() {
				if cur.State != StateHalted {
					t.Fatalf("halted job ended %s (error %q), want halted",
						cur.State, cur.Error)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never reached a terminal state", j.ID)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestStorePutAtomicOnPersistError verifies a failed persist rolls the
// in-memory map back: the record neither appears in Get nor counts against
// the tenant quota.
func TestStorePutAtomicOnPersistError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	st, err := NewStore(path)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	// A directory squatting on the store path makes the tmp+rename persist
	// fail even when running as root (rename onto a directory is EISDIR).
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatalf("Mkdir: %v", err)
	}
	j := &Job{ID: "job-1", State: StateQueued, Spec: tinySpec("baseline")}
	if err := st.Put(j); err == nil {
		t.Fatal("Put succeeded, want persist error")
	}
	if _, err := st.Get("job-1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after failed Put: %v, want ErrNotFound", err)
	}
	if n := st.ActiveByTenant(j.Spec.Tenant); n != 0 {
		t.Fatalf("failed insert counts %d active jobs against the tenant", n)
	}
	// With the blocker gone the same Put lands normally.
	if err := os.Remove(path); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := st.Put(j); err != nil {
		t.Fatalf("Put after unblocking: %v", err)
	}
	if _, err := st.Get("job-1"); err != nil {
		t.Fatalf("Get: %v", err)
	}
}
