module spio/benchmark

go 1.22

require spio v0.0.0

replace spio => ../
