// Package cli is the plumbing xedsim's commands share: flag parsing, the
// usage-error and runtime-error exits, the interrupt context, the
// observability flags (-progress, -metrics-json, -debug-addr) and the
// profiling flags (-cpuprofile, -memprofile). A command exits 2 on a
// usage error and 1 on a runtime error, and starts every line it prints
// to standard error with its name.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
)

// Command names a command in its diagnostics.
type Command string

// Parse parses the command line into the flags registered on
// flag.CommandLine. No command takes a positional argument, so one is a
// usage error: flag parsing stops at the first, and would otherwise drop
// every flag after it unseen.
func (c Command) Parse() {
	flag.Parse()
	if flag.NArg() > 0 {
		c.UsageErr("unexpected arguments: %v", flag.Args())
	}
}

// UsageErr prints the message and the flag usage to standard error and
// exits 2.
func (c Command) UsageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, string(c)+": "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// Fatal prints err to standard error and exits 1.
func (c Command) Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", c, err)
	os.Exit(1)
}

// InterruptContext returns a context cancelled by the first SIGINT or
// SIGTERM, the signal set every long-running command drains on, and the
// function that stops relaying them.
func InterruptContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// Interrupted is the error an interrupted run exits 1 with, once it has
// printed what it completed: what names that output, and path, when not
// empty, the checkpoint its progress was saved to and resumes from.
func Interrupted(what, path string) error {
	msg := "interrupted; " + what + " above"
	if path != "" {
		msg += ", progress saved to " + path + "; run the same command again to continue"
	}
	return errors.New(msg)
}

// SplitList splits a comma-separated flag value, trimming space around
// each item and dropping empty ones.
func SplitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
