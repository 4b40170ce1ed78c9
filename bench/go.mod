module funcdb/bench

go 1.22

require funcdb v0.0.0

replace funcdb => ../
