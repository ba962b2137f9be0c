// Command padll-ctl is the administrator CLI for a running data-plane
// stage: it inspects queue statistics and installs, retunes, or removes
// QoS rules over the stage's control RPC service. Every command is one
// Stage.Batch round trip: a single operation is a one-op batch, and ping
// and stats are a collect.
//
// Usage:
//
//	padll-ctl -stage 127.0.0.1:7171 ping
//	padll-ctl -stage 127.0.0.1:7171 stats
//	padll-ctl -stage 127.0.0.1:7171 apply 'limit id:open-cap op:open rate:10k burst:500' \
//	    'limit id:stat-cap op:stat rate:50k'
//	padll-ctl -stage 127.0.0.1:7171 set-rate open-cap 25k
//	padll-ctl -stage 127.0.0.1:7171 remove open-cap
//	padll-ctl -stage 127.0.0.1:7171 mode passthrough
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"padll/internal/policy"
	"padll/internal/rpcio"
	"padll/internal/stage"
)

func usage() {
	fmt.Fprintln(os.Stderr, `usage: padll-ctl -stage host:port <command> [args]
commands:
  ping                 probe the stage and print its identity
  stats                print per-queue statistics
  apply '<rule dsl>' [more rules...]
                       install or update rules; several rules land
                       atomically in one batched round trip
  set-rate <id> <rate> retune a rule's rate (k/m suffixes accepted)
  remove <id>          delete a rule
  mode <enforce|passthrough>`)
	os.Exit(2)
}

func main() {
	stageAddr := flag.String("stage", "", "stage control address (host:port)")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if *stageAddr == "" || len(args) == 0 {
		usage()
	}

	h, err := rpcio.DialStage(*stageAddr)
	if err != nil {
		fatal(err)
	}
	defer h.Close()

	// exec ships ops in one batch and returns the first op's Found.
	exec := func(ops ...rpcio.StageOp) bool {
		res, _, err := h.Exec(ops, nil)
		if err != nil {
			fatal(err)
		}
		return res[0].Found
	}

	switch args[0] {
	case "ping":
		// A fresh handle's first collect is a full snapshot, so it
		// carries the stage's identity.
		var st stage.Stats
		if err := h.CollectDeltaInto(&st); err != nil {
			fatal(err)
		}
		info := st.Info
		fmt.Printf("stage %s job=%s host=%s pid=%d user=%s\n",
			info.StageID, info.JobID, info.Hostname, info.PID, info.User)

	case "stats":
		var st stage.Stats
		if err := h.CollectDeltaInto(&st); err != nil {
			fatal(err)
		}
		fmt.Printf("stage %s (job %s): %d queues, %d passthrough requests\n",
			st.Info.StageID, st.Info.JobID, len(st.Queues), st.Passthrough)
		for _, q := range st.Queues {
			limit := "unlimited"
			if q.Limit >= 0 {
				limit = fmt.Sprintf("%.0f/s", q.Limit)
			}
			fmt.Printf("  %-16s limit=%-10s demand=%8.0f/s throughput=%8.0f/s total=%d waiting=%d wait-p50=%s wait-p99=%s\n",
				q.RuleID, limit, q.DemandRate, q.ThroughputRate, q.Total, q.Waiting,
				waitDur(q.WaitP50), waitDur(q.WaitP99))
		}

	case "apply":
		if len(args) < 2 {
			usage()
		}
		// Parse everything before touching the stage, then ship all the
		// rules in one Stage.Batch round trip: either every rule lands or
		// none does, so a typo in rule three can't leave one and two live.
		ops := make([]rpcio.StageOp, 0, len(args)-1)
		rules := make([]policy.Rule, 0, len(args)-1)
		for _, dsl := range args[1:] {
			rule, err := policy.Parse(dsl)
			if err != nil {
				fatal(err)
			}
			ops = append(ops, rpcio.StageOp{Kind: rpcio.OpApplyRule, Rule: rule})
			rules = append(rules, rule)
		}
		exec(ops...)
		for _, rule := range rules {
			fmt.Println("applied", rule.String())
		}

	case "set-rate":
		if len(args) != 3 {
			usage()
		}
		// Reuse the DSL's rate parser for k/m suffixes.
		rule, err := policy.Parse("limit id:tmp rate:" + args[2])
		if err != nil {
			fatal(err)
		}
		if !exec(rpcio.StageOp{Kind: rpcio.OpSetRate, ID: args[1], Rate: rule.Rate}) {
			fatal(fmt.Errorf("no rule %q on the stage", args[1]))
		}
		fmt.Printf("rule %s -> %.0f/s\n", args[1], rule.Rate)

	case "remove":
		if len(args) != 2 {
			usage()
		}
		if !exec(rpcio.StageOp{Kind: rpcio.OpRemoveRule, ID: args[1]}) {
			fatal(fmt.Errorf("no rule %q on the stage", args[1]))
		}
		fmt.Println("removed", args[1])

	case "mode":
		if len(args) != 2 {
			usage()
		}
		var m stage.Mode
		switch strings.ToLower(args[1]) {
		case "enforce":
			m = stage.Enforce
		case "passthrough":
			m = stage.Passthrough
		default:
			usage()
		}
		exec(rpcio.StageOp{Kind: rpcio.OpSetMode, Mode: m})
		fmt.Println("mode set to", args[1])

	default:
		usage()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "padll-ctl:", err)
	os.Exit(1)
}

// waitDur renders a wait percentile (seconds) compactly; queues that
// never blocked show "-" instead of a zero duration.
func waitDur(sec float64) string {
	if sec <= 0 {
		return "-"
	}
	return time.Duration(sec * float64(time.Second)).Round(time.Microsecond).String()
}
