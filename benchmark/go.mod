module pdmtune/benchmark

go 1.22

require pdmtune v0.0.0

replace pdmtune => ../
