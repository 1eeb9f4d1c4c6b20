package main

// The rpc sweep: the transport itself on the snapshot fetch workload.
// The full membership of an n-element collection is fetched through
// GetBatch RPCs over one TCP connection, by `budget` workers sharing one
// client, against a remote that charges a fixed service time per RPC.
// The serial arm lets one call onto the wire at a time — the
// one-RPC-per-round-trip transport the repo used to have — so the sweep
// isolates what multiplexing buys at each concurrency level and payload
// size.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"weaksets/internal/netsim"
	"weaksets/internal/repo"
	"weaksets/internal/rpc"
	"weaksets/internal/tcprpc"
)

// rpcServiceTime is what every dispatched RPC pays before it is served:
// the stand-in for disk or WAN work a real archive would do, and exactly
// the latency a serialized transport eats once per round trip and a
// multiplexed transport overlaps.
const rpcServiceTime = 2 * time.Millisecond

// startRPCRemote boots the sweep's "remote process": its own network,
// bus, and repository server, reachable only over loopback TCP, plus a
// client on that bus for setup reads the sweep does not time.
func startRPCRemote(workers int) (*tcprpc.Server, *repo.Client, func(), error) {
	const node = netsim.NodeID("archive")
	net := netsim.New(netsim.Config{})
	net.AddNode(node)
	bus := rpc.NewBus(net)
	repoSrv, err := repo.NewServer(bus, node)
	if err != nil {
		return nil, nil, nil, err
	}
	dispatch := rpc.NewServer(node)
	for _, method := range tcprpc.RepoMethods() {
		method := method
		dispatch.Handle(method, func(ctx context.Context, from netsim.NodeID, req any) (any, error) {
			time.Sleep(rpcServiceTime)
			out, _, err := bus.Call(ctx, node, node, method, req)
			return out, err
		})
	}
	srv, err := tcprpc.ServeConfig("127.0.0.1:0", dispatch, tcprpc.ServerConfig{Workers: workers})
	if err != nil {
		repoSrv.Close()
		return nil, nil, nil, err
	}
	cleanup := func() {
		srv.Close()
		repoSrv.Close()
	}
	return srv, repo.NewClient(bus, node), cleanup, nil
}

func rpcSweep(b *bench) error {
	elements, batch := 1000, 16
	payloads := []int{256, 4096}
	budgets := []int{1, 2, 4, 8, 16}
	if b.quick {
		elements = 200
		payloads = []int{256}
		budgets = []int{1, 8}
	}
	b.params["elements"] = float64(elements)
	b.params["batch"] = float64(batch)
	b.params["service_time_ms"] = ms(rpcServiceTime)

	for _, payload := range payloads {
		if err := rpcPayload(b, payload, budgets, batch, elements); err != nil {
			return err
		}
	}
	return nil
}

// rpcPayload boots one remote seeded with payload-byte objects and runs
// every trial, budget and arm against it.
func rpcPayload(b *bench, payload int, budgets []int, batch, elements int) error {
	ctx := context.Background()
	srv, lister, stop, err := startRPCRemote(budgets[len(budgets)-1])
	if err != nil {
		return err
	}
	defer stop()
	if err := seedSnapshot(ctx, srv.Addr(), elements, payload); err != nil {
		return err
	}
	members, _, err := lister.List(ctx, "archive", "snap")
	if err != nil {
		return err
	}
	if len(members) != elements {
		return fmt.Errorf("snapshot lists %d members, want %d", len(members), elements)
	}
	for t := 0; t < b.trials; t++ {
		for _, budget := range budgets {
			var base float64
			for _, mode := range []string{"serial", "multiplexed"} {
				w := fmt.Sprintf("%s/payload=%d/budget=%d", mode, payload, budget)
				perSec, err := rpcFetch(ctx, b, w, srv.Addr(), members, mode == "serial", budget, batch)
				if err != nil {
					return fmt.Errorf("%s: %w", w, err)
				}
				// One worker has nothing to overlap: budget=1 is the same
				// transport in both arms, so it states no speedup.
				if mode == "serial" {
					base = perSec
				} else if budget > 1 {
					b.add(w, "mux_speedup", "x", perSec/base)
				}
			}
		}
	}
	return nil
}

// seedSnapshot populates the "snap" collection on the remote at addr
// with `elements` objects of `payload` bytes each.
func seedSnapshot(ctx context.Context, addr string, elements, payload int) error {
	seed := tcprpc.Dial(addr, "seeder")
	defer seed.Close()
	if _, err := seed.Call(ctx, repo.MethodCreate, repo.CreateReq{Name: "snap"}); err != nil {
		return err
	}
	for i := 0; i < elements; i++ {
		obj := repo.Object{ID: repo.ObjectID(fmt.Sprintf("e%04d", i)), Data: make([]byte, payload)}
		if _, err := seed.Call(ctx, repo.MethodPut, repo.PutReq{Obj: obj}); err != nil {
			return fmt.Errorf("populate: %w", err)
		}
		if _, err := seed.Call(ctx, repo.MethodAdd, repo.AddReq{Name: "snap", Ref: repo.Ref{ID: obj.ID, Node: "archive"}}); err != nil {
			return fmt.Errorf("populate: %w", err)
		}
	}
	return nil
}

// drainSnapshot performs one timed snapshot fetch over client: split the
// membership into GetBatch calls of `batch` ids, and drain them with
// `budget` workers sharing the one client. With serial set
// the workers take turns on a one-slot semaphore, so the wire carries
// one RPC at a time no matter how many of them queue behind it.
func drainSnapshot(ctx context.Context, client *tcprpc.Client, members []repo.Ref, serial bool, budget, batch int) (time.Duration, error) {
	batches := make(chan []repo.ObjectID, (len(members)+batch-1)/batch)
	for lo := 0; lo < len(members); lo += batch {
		ids := make([]repo.ObjectID, 0, batch)
		for _, ref := range members[lo:min(lo+batch, len(members))] {
			ids = append(ids, ref.ID)
		}
		batches <- ids
	}
	close(batches)

	slots := budget
	if serial {
		slots = 1
	}
	var (
		wg      sync.WaitGroup
		fetched atomic.Int64
		wire    = make(chan struct{}, slots)
		firstMu sync.Mutex
		callErr error
	)
	start := time.Now()
	for w := 0; w < budget; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ids := range batches {
				wire <- struct{}{}
				out, err := client.Call(ctx, repo.MethodGetBatch, repo.GetBatchReq{IDs: ids})
				<-wire
				if err != nil {
					firstMu.Lock()
					if callErr == nil {
						callErr = err
					}
					firstMu.Unlock()
					return
				}
				fetched.Add(int64(len(out.(repo.GetBatchResp).Objects)))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if callErr != nil {
		return 0, callErr
	}
	if got := fetched.Load(); got != int64(len(members)) {
		return 0, fmt.Errorf("fetched %d elements, want %d", got, len(members))
	}
	return elapsed, nil
}

// rpcFetch runs drainSnapshot on a fresh client and records the trial's
// rows under workload w, returning its elements/sec.
func rpcFetch(ctx context.Context, b *bench, w, addr string, members []repo.Ref, serial bool, budget, batch int) (float64, error) {
	client := tcprpc.Dial(addr, "bench")
	defer client.Close()
	elapsed, err := drainSnapshot(ctx, client, members, serial, budget, batch)
	if err != nil {
		return 0, err
	}
	st := client.Stats()
	perSec := float64(len(members)) / elapsed.Seconds()
	b.add(w, "elapsed_ms", "ms", ms(elapsed))
	b.add(w, "elems_per_s", "1/s", perSec)
	for _, m := range st.Methods {
		if m.Method == repo.MethodGetBatch {
			b.add(w, "rpcs_per_s", "1/s", float64(m.Count)/elapsed.Seconds())
			b.add(w, "rtt_mean_ms", "ms", ms(m.Mean))
			b.add(w, "rtt_p99_ms", "ms", ms(m.P99))
		}
	}
	b.add(w, "max_inflight", "count", float64(st.MaxInFlight))
	return perSec, nil
}
