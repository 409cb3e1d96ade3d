// Command pdmclient is an interactive PDM client for a pdmserver: it
// connects over TCP, optionally shaping traffic like the paper's
// Germany↔Brazil WAN (delays scaled down so a "30-minute" expand takes
// seconds), and offers the paper's user actions as commands.
//
//	pdmclient -addr localhost:7070 -strategy recursive -wan -scale 0.01
//
// Commands:
//
//	expand <obid>     single-level expand
//	mle <obid>        multi-level expand
//	query <prod>      set-oriented query
//	checkout <obid>   check out a subtree (stored procedure)
//	checkin <obid>    check a subtree back in
//	sql <statement>   raw SQL
//	quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strconv"
	"strings"

	"pdmtune"
	"pdmtune/internal/core"
	"pdmtune/internal/costmodel"
	"pdmtune/internal/netsim"
	"pdmtune/internal/wire"
)

func main() {
	addr := flag.String("addr", "localhost:7070", "server address")
	strategy := flag.String("strategy", "recursive", "late | early | recursive")
	user := flag.String("user", "scott", "user name")
	wan := flag.Bool("wan", false, "shape traffic like the 256 kbit/s / 150 ms WAN")
	scale := flag.Float64("scale", 0.01, "real-delay scale factor for -wan")
	flag.Parse()

	var strat pdmtune.Strategy
	switch *strategy {
	case "late":
		strat = pdmtune.LateEval
	case "early":
		strat = pdmtune.EarlyEval
	case "recursive":
		strat = pdmtune.Recursive
	default:
		log.Fatalf("pdmclient: unknown strategy %q", *strategy)
	}

	conn, err := net.Dial("tcp", *addr)
	if err != nil {
		log.Fatalf("pdmclient: %v", err)
	}
	defer conn.Close()

	link := pdmtune.Intercontinental()
	var stream = conn
	var transport wire.Transport = &wire.StreamChannel{Stream: stream}
	if *wan {
		transport = &wire.StreamChannel{Stream: &netsim.DelayedConn{Stream: conn, Link: link, Scale: *scale}}
		fmt.Printf("traffic shaped: %s at %.0f%% real time\n", link, *scale*100)
	}
	// Charge real round trips to a meter so the client can report what
	// the exchange would cost on the unscaled WAN.
	meter := netsim.NewMeter(link)
	client := core.NewClient(wire.Metered(transport, meter), meter,
		pdmtune.StandardRules(), pdmtune.DefaultUser(*user), costmodel.Strategy(strat))

	fmt.Printf("connected to %s as %s (strategy: %s)\n", *addr, *user, strat)
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("pdm> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			if quit := run(client, meter, line); quit {
				return
			}
		}
		fmt.Print("pdm> ")
	}
}

func run(client *core.Client, meter *netsim.Meter, line string) (quit bool) {
	fields := strings.Fields(line)
	cmd := strings.ToLower(fields[0])
	arg := int64(0)
	if len(fields) > 1 {
		arg, _ = strconv.ParseInt(fields[1], 10, 64)
	}
	meter.Reset()
	switch cmd {
	case "quit", "exit":
		return true
	case "expand":
		res, err := client.Expand(context.Background(), arg)
		report(res, err)
	case "mle":
		res, err := client.MultiLevelExpand(context.Background(), arg)
		report(res, err)
	case "query":
		res, err := client.QueryAll(context.Background(), arg)
		report(res, err)
	case "checkout":
		res, err := client.CheckOutViaProcedure(context.Background(), arg)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("granted=%v updated=%d (%s)\n", res.Granted, res.Updated, res.Metrics)
	case "checkin":
		res, err := client.CheckInViaProcedure(context.Background(), arg)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("updated=%d (%s)\n", res.Updated, res.Metrics)
	case "sql":
		resp, err := client.Exec(context.Background(), strings.TrimSpace(strings.TrimPrefix(line, "sql")))
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if resp.Cols != nil {
			fmt.Println(strings.Join(resp.Cols, " | "))
			for _, row := range resp.Rows {
				parts := make([]string, len(row))
				for i, v := range row {
					parts[i] = v.String()
				}
				fmt.Println(strings.Join(parts, " | "))
			}
		}
		fmt.Printf("%d rows, %d affected (%s)\n", len(resp.Rows), resp.RowsAffected, meter.Metrics)
	default:
		fmt.Println("commands: expand N | mle N | query P | checkout N | checkin N | sql ... | quit")
	}
	return false
}

func report(res *core.ActionResult, err error) {
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%d objects visible, %d rows received\n", res.Visible, res.RowsReceived)
	if res.Tree != nil && res.Tree.Root != nil {
		printTree(res.Tree.Root, 0, 3)
	}
	fmt.Printf("WAN (unscaled): %s\n", res.Metrics)
}

func printTree(n *core.Node, depth, maxDepth int) {
	if depth > maxDepth {
		return
	}
	fmt.Printf("%s%s %d %s\n", strings.Repeat("  ", depth), n.Type, n.ObID, n.Name)
	shown := 0
	for _, c := range n.Children {
		if shown >= 5 {
			fmt.Printf("%s... (%d more)\n", strings.Repeat("  ", depth+1), len(n.Children)-shown)
			break
		}
		printTree(c, depth+1, maxDepth)
		shown++
	}
}
