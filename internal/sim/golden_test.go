package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/abr"
	"repro/internal/abrtest"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/video"
)

// goldenRunDigest is the SHA-256 of every arm's sim.Run Result (rungs,
// qoe.Metrics, trajectory, waits, abandons, duration). Any change to the
// reference player's arithmetic — including float rounding — changes it.
// The value was computed on amd64 before the player step kernel was
// extracted; architectures that fuse multiply-adds may round differently.
const goldenRunDigest = "87d161998652a17b6d8a70f7f7abe4ddc4876f1ebd4a3e34ed033a5f13977112"

// waitEvery wraps a controller and replaces every fourth decision with a
// wait, cycling through advised durations that hit each branch of the wait
// clamp: non-positive, in range, above one segment, and above the buffer.
// Registered controllers only wait above the cap, which sim.Run's idling
// never lets them see.
type waitEvery struct {
	abr.Controller
	n int
}

func (w *waitEvery) Decide(ctx *abr.Context) abr.Decision {
	d := w.Controller.Decide(ctx)
	if w.n++; w.n%4 == 0 {
		advised := []units.Seconds{0, 0.7, 5, 30}[(w.n/4)%4]
		return abr.Wait(advised)
	}
	return d
}

func (w *waitEvery) Reset() { w.Controller.Reset(); w.n = 0 }

// TestRunGoldenDigest pins sim.Run's outputs over the abrtest hostile traces
// × every registered ladder, for SODA and a baseline (BOLA), each also
// wrapped to wait every fourth decision, plus a live-edge + abandonment arm
// with latency and a two-segment startup. It is the drift gate for
// refactors of the player: they must keep the digest.
func TestRunGoldenDigest(t *testing.T) {
	traces := abrtest.HostileTraces()
	names := make([]string, 0, len(traces))
	for name := range traces {
		names = append(names, name)
	}
	sort.Strings(names)

	h := sha256.New()
	arms, waits, abandons := 0, 0, 0
	run := func(arm string, cfg sim.Config, ctrl string, tname string) {
		t.Helper()
		tr := traces[tname]
		name, wrapped := strings.CutSuffix(ctrl, "+waits")
		c, err := abr.New(name, cfg.Ladder)
		if err != nil {
			t.Fatal(err)
		}
		if wrapped {
			c = &waitEvery{Controller: c}
		}
		cfg.Controller = c
		cfg.Predictor = predictor.NewEMA(units.Seconds(4))
		cfg.SessionSeconds = tr.Duration()
		cfg.RecordTrajectory = true
		res, err := sim.Run(tr, cfg)
		if err != nil {
			t.Fatalf("%s/%s/%s: %v", arm, ctrl, tname, err)
		}
		fmt.Fprintf(h, "%s/%s/%s %+v\n", arm, ctrl, tname, res)
		arms++
		waits += res.Waits
		abandons += res.Abandons
	}
	for _, nl := range video.NamedLadders() {
		for _, ctrl := range []string{"soda", "bola", "soda+waits", "bola+waits"} {
			for _, tname := range names {
				run(nl.Name, sim.Config{Ladder: nl.Ladder, BufferCap: units.Seconds(20)}, ctrl, tname)
			}
		}
	}
	live := sim.Config{
		Ladder:                video.Mobile(),
		BufferCap:             units.Seconds(20),
		StartupSegments:       2,
		LatencySeconds:        units.Seconds(0.08),
		Live:                  true,
		LiveEdgeOffsetSeconds: units.Seconds(8),
		Abandonment:           true,
	}
	for _, ctrl := range []string{"soda", "bola", "soda+waits", "bola+waits"} {
		for _, tname := range names {
			run("live-abandon", live, ctrl, tname)
		}
	}
	if waits == 0 || abandons == 0 {
		t.Fatalf("golden arms exercised %d waits and %d abandons; both paths must be covered", waits, abandons)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenRunDigest {
		t.Fatalf("sim.Run outputs drifted over %d arms: digest %s, want %s", arms, got, goldenRunDigest)
	}
}
