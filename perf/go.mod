module kafkadirect/perf

go 1.22

require kafkadirect v0.0.0

replace kafkadirect => ../
