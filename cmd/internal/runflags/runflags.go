// Package runflags holds the run flags the simulator's commands share:
// the spec block -seed/-machine/-engine/-txns (odbrun, odbsweep) and
// the campaign block -checkpoint/-resume/-events/-quiet with its
// progress and event-log observers (odbsweep, paperrepro).
package runflags

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"

	"odbscale/internal/campaign"
	"odbscale/internal/engine"
	"odbscale/internal/system"
)

// RegisterSpec declares the spec block on fs, bound to spec, whose
// values are the defaults: -seed, -machine (resolved by Machine as it
// is parsed), -engine and -txns.
func RegisterSpec(fs *flag.FlagSet, spec *campaign.Spec) {
	fs.Int64Var(&spec.Seed, "seed", spec.Seed, "random seed")
	fs.Func("machine", "platform: xeon or itanium2 (default xeon)", func(name string) (err error) {
		spec.Machine, err = Machine(name)
		return err
	})
	fs.StringVar(&spec.Engine, "engine", engine.DefaultName,
		fmt.Sprintf("storage engine: %s", strings.Join(engine.Names(), " or ")))
	fs.IntVar(&spec.MeasureTxns, "txns", spec.MeasureTxns, "measured transactions per point")
}

// Machine resolves a -machine name: "xeon" (the paper's quad Xeon) or
// "itanium2" (the validation platform of Figure 19).
func Machine(name string) (system.MachineConfig, error) {
	switch name {
	case "xeon":
		return system.XeonQuad(), nil
	case "itanium2":
		return system.Itanium2Quad(), nil
	}
	return system.MachineConfig{}, fmt.Errorf("unknown -machine %q (want xeon or itanium2)", name)
}

// Campaign is the campaign flag block: where completed points persist,
// whether to resume from there, the JSON event log and the progress
// line.
type Campaign struct {
	checkpoint string
	resume     bool
	events     string
	quiet      bool
}

// RegisterCampaign declares -checkpoint, -resume, -events and -quiet
// on fs.
func RegisterCampaign(fs *flag.FlagSet) *Campaign {
	c := &Campaign{}
	fs.StringVar(&c.checkpoint, "checkpoint", "", "checkpoint file: completed points persist here after every run")
	fs.BoolVar(&c.resume, "resume", false, "resume from -checkpoint, re-executing only incomplete points")
	fs.StringVar(&c.events, "events", "", "append a JSON campaign event log to this file")
	fs.BoolVar(&c.quiet, "quiet", false, "suppress the stderr progress line")
	return c
}

// Run executes spec with the block's checkpoint, resume and observers
// (the stderr progress line unless -quiet, the -events log). Ctrl-C
// cancels the campaign cleanly: in-flight runs stop at the next
// cancellation check and the checkpoint keeps completed points, which
// a failed run names so the campaign can be resumed.
func (c *Campaign) Run(spec campaign.Spec) (*campaign.Result, error) {
	if c.resume && c.checkpoint == "" {
		return nil, errors.New("-resume requires -checkpoint")
	}
	spec.CheckpointPath = c.checkpoint
	spec.Resume = c.resume
	var observers []campaign.Observer
	if !c.quiet {
		observers = append(observers, campaign.NewProgress(os.Stderr, len(spec.Warehouses)*len(spec.Processors)))
	}
	if c.events != "" {
		f, err := os.OpenFile(c.events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		observers = append(observers, campaign.NewEventLog(f))
	}
	spec.Observer = campaign.Observers(observers...)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := campaign.Run(ctx, spec)
	if err != nil && c.checkpoint != "" {
		// A spec rejected up front leaves no checkpoint to resume from.
		if _, statErr := os.Stat(c.checkpoint); statErr == nil {
			log.Printf("campaign stopped; completed points are in %s (rerun with -resume)", c.checkpoint)
		}
	}
	return res, err
}
