//go:build !linux

package main

// startSpinners is a no-op off Linux.
func startSpinners(int) (func(), error) { return func() {}, nil }

func spinForever(int) { select {} }
