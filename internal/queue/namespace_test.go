package queue

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestJobNamespaceKeys(t *testing.T) {
	root := Namespace("")
	if got := root.DataKey(3); got != "dlion:data:3" {
		t.Errorf("root data key = %q, want the historical layout", got)
	}
	ns := JobNamespace("job-12")
	if got := ns.DataKey(3); got != "dlion:job:job-12:data:3" {
		t.Errorf("job data key = %q", got)
	}
}

func TestValidJobID(t *testing.T) {
	for _, ok := range []string{"job-1", "a", "A.B_c-9", "x2345678901234567890123456789012345678901234567890123456789012345"[:64]} {
		if !ValidJobID(ok) {
			t.Errorf("ValidJobID(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "has space", "a:b", "a/b", "ü", "x2345678901234567890123456789012345678901234567890123456789012345"} {
		if ValidJobID(bad) {
			t.Errorf("ValidJobID(%q) = true, want false", bad)
		}
	}
}

// TestJobNamespaceIsolation drives two jobs' worth of traffic — lists and
// pub/sub — through ONE broker concurrently and asserts zero
// cross-delivery: everything job A's publishers push is seen only by job
// A's consumers, tagged as A's. Run under -race this also exercises the
// broker's locking across namespaces.
func TestJobNamespaceIsolation(t *testing.T) {
	b := NewBroker()
	defer b.Close()

	const msgsPerWorker = 200
	const workers = 2
	jobs := []string{"A", "B"}

	// Subscribe each job's control channel before publishing starts.
	subs := map[string]*Subscription{}
	for _, j := range jobs {
		s, err := b.Subscribe(string(JobNamespace(j))+"ctl", msgsPerWorker*workers)
		if err != nil {
			t.Fatalf("subscribe %s: %v", j, err)
		}
		subs[j] = s
	}

	// Publishers: per job, per worker, interleaved pushes + publishes.
	var wg sync.WaitGroup
	for _, j := range jobs {
		ns := JobNamespace(j)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(j string, ns Namespace, w int) {
				defer wg.Done()
				for i := 0; i < msgsPerWorker; i++ {
					payload := []byte(fmt.Sprintf("%s:%d:%d", j, w, i))
					// LPush takes ownership of its slice; Publish gets its own.
					if err := b.LPush(ns.DataKey(w), append([]byte(nil), payload...)); err != nil {
						t.Errorf("LPush %s: %v", j, err)
						return
					}
					if _, err := b.Publish(string(ns)+"ctl", payload); err != nil {
						t.Errorf("Publish %s: %v", j, err)
						return
					}
				}
			}(j, ns, w)
		}
	}

	// Consumers: per job, per worker, blocking pops on the job's data keys.
	type got struct {
		job     string
		payload []byte
	}
	results := make(chan got, len(jobs)*workers*msgsPerWorker)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, j := range jobs {
		ns := JobNamespace(j)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(j string, ns Namespace, w int) {
				defer wg.Done()
				for i := 0; i < msgsPerWorker; i++ {
					p, err := b.BRPop(ctx, ns.DataKey(w))
					if err != nil {
						t.Errorf("BRPop %s worker %d: %v", j, w, err)
						return
					}
					results <- got{j, p}
				}
			}(j, ns, w)
		}
	}
	wg.Wait()
	close(results)

	for r := range results {
		if string(r.payload[:1]) != r.job {
			t.Fatalf("job %s consumer popped %q — cross-namespace delivery", r.job, r.payload)
		}
	}

	// Pub/sub side: each job's subscriber saw exactly its own publishes.
	for _, j := range jobs {
		s := subs[j]
		seen := 0
	drain:
		for {
			select {
			case p := <-s.C:
				if string(p[:1]) != j {
					t.Fatalf("job %s subscriber got %q — cross-namespace delivery", j, p)
				}
				seen++
			default:
				break drain
			}
		}
		if want := msgsPerWorker * workers; seen != want {
			t.Errorf("job %s subscriber saw %d messages, want %d", j, seen, want)
		}
	}

	// Nothing left on any data key of either namespace.
	for _, j := range jobs {
		ns := JobNamespace(j)
		for w := 0; w < workers; w++ {
			if n := listLen(b, ns.DataKey(w)); n != 0 {
				t.Errorf("job %s worker %d has %d undelivered frames", j, w, n)
			}
		}
	}
}
