//go:build !linux

package main

import "time"

// pacer wakes an open-loop connection at its scheduled send times; off Linux
// it is a plain Go timer, with the runtime's wake-up granularity.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

// waitUntil returns once the monotonic clock reaches due.
func (p *pacer) waitUntil(due int64) error {
	for rem := due - nowNS(); rem > 0; rem = due - nowNS() {
		time.Sleep(time.Duration(rem))
	}
	return nil
}

func (p *pacer) close() {}
