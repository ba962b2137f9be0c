// Package clockfix seeds clockcheck violations for the golden test:
// every banned time-package call, import aliasing, the suppression
// pragma, and a malformed pragma that must itself be reported.
package clockfix

import (
	"time"
	stdtime "time"
)

func bad() time.Duration {
	start := time.Now()            // want `direct time\.Now call`
	time.Sleep(time.Millisecond)   // want `direct time\.Sleep call`
	<-time.After(time.Millisecond) // want `direct time\.After call`
	return time.Since(start)       // want `direct time\.Since call`
}

func timers() {
	time.NewTimer(time.Second).Stop()             // want `direct time\.NewTimer call`
	time.AfterFunc(time.Second, func() {}).Stop() // want `direct time\.AfterFunc call`
	time.NewTicker(time.Second).Stop()            // want `direct time\.NewTicker call`
	<-time.Tick(time.Millisecond)                 // want `direct time\.Tick call`
}

func aliased() time.Time {
	return stdtime.Now() // want `direct time\.Now call`
}

func suppressedTrailing() time.Time {
	return time.Now() //lint:allow clockcheck fixture demonstrates a justified exception
}

func suppressedAbove() {
	//lint:allow clockcheck the pragma can also sit on the line above
	time.Sleep(time.Millisecond)
}

func badPragma() {
	//lint:allow tpyocheck oops // want `pragma names unknown analyzer "tpyocheck"`
	time.Sleep(time.Millisecond) // want `direct time\.Sleep call`
}

func fine() time.Duration {
	// Types, constants and non-banned helpers stay usable.
	var t time.Time
	return t.Sub(time.Time{}) + 3*time.Second
}
