package fleet

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pair/internal/failpoint"
)

// fastClientOptions keeps retry sleeps out of the test wall clock.
func fastClientOptions() ClientOptions {
	return ClientOptions{
		Retries:   4,
		RetryBase: time.Millisecond,
		RetryMax:  4 * time.Millisecond,
	}
}

// startCoordServer boots a journal-less coordinator behind a
// request-counting httptest server.
func startCoordServer(t *testing.T, opts CoordinatorOptions) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	coord, err := NewCoordinator(opts)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(coord.Close)
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		coord.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &requests
}

func singleShardSpec() JobSpec {
	return JobSpec{
		Namespace: testNamespace,
		Schemes:   []string{"none"},
		Scenarios: []string{"cell"},
		Trials:    testShardSize,
		ShardSize: testShardSize,
		Seed:      testSeed,
	}
}

// TestClientRetriesTransientServerFaults: 500s from the coordinator are
// absorbed by the retry budget; the caller sees only the eventual
// success.
func TestClientRetriesTransientServerFaults(t *testing.T) {
	defer failpoint.Reset()
	srv, requests := startCoordServer(t, CoordinatorOptions{})
	client := NewClientWith(srv.URL, fastClientOptions())
	ctx := context.Background()

	id, err := client.Submit(ctx, singleShardSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	failpoint.Arm(FailpointCoordRequest, failpoint.Action{Err: errors.New("transient"), Times: 2})
	requests.Store(0)
	st, err := client.Status(ctx, id)
	if err != nil {
		t.Fatalf("status with 2 injected 500s: %v", err)
	}
	if st.ID != id {
		t.Fatalf("status returned job %q, want %q", st.ID, id)
	}
	if n := requests.Load(); n != 3 {
		t.Errorf("status took %d requests, want 3 (two 500s + success)", n)
	}
}

// TestClientRetriesDroppedRequests: a connection aborted before any
// response bytes — a dropped request on the wire — is a transport error
// and is retried.
func TestClientRetriesDroppedRequests(t *testing.T) {
	defer failpoint.Reset()
	srv, _ := startCoordServer(t, CoordinatorOptions{})
	client := NewClientWith(srv.URL, fastClientOptions())
	ctx := context.Background()

	id, err := client.Submit(ctx, singleShardSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	failpoint.Arm(FailpointCoordDrop, failpoint.Action{Err: errors.New("dropped"), Times: 2})
	if _, err := client.Status(ctx, id); err != nil {
		t.Fatalf("status with 2 dropped requests: %v", err)
	}
	if fired := failpoint.Fired(FailpointCoordDrop); fired != 2 {
		t.Errorf("drop failpoint fired %d times, want 2", fired)
	}
}

// TestClientRetriesTransportFaults: client-side network failures (the
// request never leaves) retry the same way.
func TestClientRetriesTransportFaults(t *testing.T) {
	defer failpoint.Reset()
	srv, _ := startCoordServer(t, CoordinatorOptions{})
	client := NewClientWith(srv.URL, fastClientOptions())
	ctx := context.Background()

	id, err := client.Submit(ctx, singleShardSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	failpoint.Arm(FailpointClientRequest, failpoint.Action{Err: errors.New("cable pulled"), Times: 2})
	if _, err := client.Status(ctx, id); err != nil {
		t.Fatalf("status with 2 client-side faults: %v", err)
	}
}

// TestClientPermanentErrorsNotRetried: a 4xx is an answer, not a fault —
// exactly one request goes out.
func TestClientPermanentErrorsNotRetried(t *testing.T) {
	srv, requests := startCoordServer(t, CoordinatorOptions{})
	client := NewClientWith(srv.URL, fastClientOptions())
	ctx := context.Background()

	requests.Store(0)
	if _, err := client.Status(ctx, "j999"); err == nil {
		t.Fatal("status of unknown job succeeded, want 404 error")
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("404 took %d requests, want 1 (permanent errors are not retried)", n)
	}
}

// TestClientSubmitNotRetried: Submit is not idempotent, so even a
// retryable fault ends it after one attempt.
func TestClientSubmitNotRetried(t *testing.T) {
	defer failpoint.Reset()
	srv, requests := startCoordServer(t, CoordinatorOptions{})
	client := NewClientWith(srv.URL, fastClientOptions())
	ctx := context.Background()

	failpoint.Arm(FailpointCoordRequest, failpoint.Action{Err: errors.New("transient"), Times: 1})
	requests.Store(0)
	if _, err := client.Submit(ctx, singleShardSpec()); err == nil {
		t.Fatal("submit through an injected 500 succeeded, want error")
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("submit took %d requests, want 1 (submissions must not be retried)", n)
	}
}

// TestClientRequestTimeout: a stalled coordinator cannot hang the
// client — the per-request timeout fires and surfaces as an error.
func TestClientRequestTimeout(t *testing.T) {
	defer failpoint.Reset()
	srv, _ := startCoordServer(t, CoordinatorOptions{})
	client := NewClientWith(srv.URL, ClientOptions{
		Timeout: 50 * time.Millisecond,
		Retries: -1, // single attempt: this test is about the timeout
	})
	ctx := context.Background()

	failpoint.Arm(FailpointCoordRequest, failpoint.Action{Delay: 500 * time.Millisecond, Times: 1})
	start := time.Now()
	_, err := client.Status(ctx, "j1")
	if err == nil {
		t.Fatal("status against a stalled coordinator succeeded, want timeout error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timeout error = %v, want context.DeadlineExceeded in the chain", err)
	}
	if elapsed := time.Since(start); elapsed > 400*time.Millisecond {
		t.Errorf("timed out after %v, want well under the 500ms stall", elapsed)
	}
}

// TestClientRetryBudgetExhausted: when every attempt answers 500, the
// final error carries the server's answer and the budget is respected.
func TestClientRetryBudgetExhausted(t *testing.T) {
	defer failpoint.Reset()
	srv, requests := startCoordServer(t, CoordinatorOptions{})
	client := NewClientWith(srv.URL, fastClientOptions())
	ctx := context.Background()

	failpoint.Arm(FailpointCoordRequest, failpoint.Action{Err: errors.New("down hard")})
	requests.Store(0)
	_, err := client.Status(ctx, "j1")
	if err == nil || !strings.Contains(err.Error(), "down hard") {
		t.Fatalf("status = %v, want the injected 500 surfaced", err)
	}
	if n := requests.Load(); n != 4 {
		t.Errorf("exhausting the budget took %d requests, want 4", n)
	}
}

// TestWatchReconnectsAndDedups: an SSE connection severed mid-job is
// transparently reconnected; replayed events are deduplicated by id,
// the terminal "done" always arrives, and event ids are strictly
// increasing across the reconnect.
func TestWatchReconnectsAndDedups(t *testing.T) {
	srv, _ := startCoordServer(t, CoordinatorOptions{LeaseTTL: time.Minute})
	client := NewClientWith(srv.URL, fastClientOptions())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	id, err := client.Submit(ctx, singleShardSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	var mu sync.Mutex
	var events []Event
	watchDone := make(chan error, 1)
	go func() {
		watchDone <- client.Watch(ctx, id, func(ev Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		})
	}()

	// Let the watcher attach, then cut every client connection — the
	// SSE stream dies mid-job and Watch must reconnect on its own.
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(events) > 0
	}, "initial snapshot")
	srv.CloseClientConnections()

	// Finish the job through the lease API; the reconnected watcher
	// must still observe the terminal event.
	lease, err := client.Lease(ctx, "w")
	if err != nil || lease == nil {
		t.Fatalf("lease: %v (lease=%v)", err, lease)
	}
	if _, err := client.Complete(ctx, lease.ID, CompleteRequest{Worker: "w", Fragment: []byte(`[30,0,0,0]`)}); err != nil {
		t.Fatalf("complete: %v", err)
	}
	if err := <-watchDone; err != nil {
		t.Fatalf("watch: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	var lastID uint64
	doneCount := 0
	for i, ev := range events {
		if ev.Name == "done" {
			doneCount++
			continue
		}
		if ev.ID <= lastID {
			t.Errorf("event %d (%s) id %d not above predecessor %d: replay leaked through dedup", i, ev.Name, ev.ID, lastID)
		}
		lastID = ev.ID
	}
	if doneCount != 1 {
		t.Errorf("watcher saw %d done events, want exactly 1", doneCount)
	}
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// roundTripFunc serves requests from a function, without a network or
// any watch on the request context.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestWatchCancelledDuringDroppedStream pins Watch's cancel contract at
// the exact interleaving that used to leak the stream error: the caller
// cancels from onEvent, then the stream ends before the job finished.
// The canned transport ignores the context, so the drop is always seen
// after the cancel and Watch must report ctx.Err(), not the drop.
func TestWatchCancelledDuringDroppedStream(t *testing.T) {
	streams := 0
	opts := fastClientOptions()
	opts.HTTP = &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		streams++
		return &http.Response{
			StatusCode: http.StatusOK,
			Header:     http.Header{"Content-Type": {"text/event-stream"}},
			Body:       io.NopCloser(strings.NewReader("id: 1\nevent: progress\ndata: {}\n\n")),
			Request:    r,
		}, nil
	})}
	client := NewClientWith("http://coordinator.invalid", opts)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var events []string
	err := client.Watch(ctx, "j1", func(ev Event) {
		events = append(events, ev.Name)
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Watch after cancel = %v, want context.Canceled", err)
	}
	if streams != 1 || len(events) != 1 || events[0] != "progress" {
		t.Fatalf("streams %d, events %v; want one stream delivering one progress event", streams, events)
	}
}
