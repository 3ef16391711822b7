package sim

import "time"

// Every schedules fn to run repeatedly at the given interval, starting
// one interval from now — the recurring-probe idiom. The
// returned stop function cancels the series; it is safe to call more
// than once.
func Every(clock Clock, interval time.Duration, fn func()) (stop func()) {
	if interval <= 0 {
		panic("sim: Every with non-positive interval")
	}
	stopped := false
	var timer Timer
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			timer = clock.AfterFunc(interval, tick)
		}
	}
	timer = clock.AfterFunc(interval, tick)
	return func() {
		stopped = true
		if timer != nil {
			timer.Stop()
		}
	}
}
