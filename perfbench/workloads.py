"""The benchmark's training workloads, generated from a seed.

Both train 10-class ``make_image_dataset`` images through
``ParallelTrainer.fit`` on the real engines, sized for a 2-core host:
one benchmark process and at most two ranks computing at once.
"""

from __future__ import annotations

from dataclasses import dataclass

#: held-out samples every workload's accuracy is measured on
TEST_SAMPLES = 1000


@dataclass(frozen=True)
class Workload:
    """One engine x model x codec cell and the size of one run of it.

    A run is one ``fit`` epoch of ``steps_per_run`` global batches on a
    freshly constructed trainer; a benchmark invocation repeats runs of
    the same seed until its time is used.
    """

    name: str
    engine: str
    world_size: int
    model: str
    image_size: int
    scheme: str
    exchange: str
    batch_size: int
    steps_per_run: int

    def inputs(self, seed: int):
        """(dataset, model) generated from ``seed`` alone."""
        from repro.data import make_image_dataset
        from repro.models import tiny_alexnet, tiny_resnet

        # class pairs share 95% of their prototype: in a run's length the
        # model separates the pairs but hardly the classes within one,
        # which keeps loss and accuracy on a plateau that varies little
        # from seed to seed (chosen by measuring seeds, not tuned per seed)
        dataset = make_image_dataset(
            num_classes=10,
            train_samples=self.steps_per_run * self.batch_size,
            test_samples=TEST_SAMPLES,
            image_size=self.image_size,
            noise=1.0,
            class_correlation=0.95,
            seed=seed,
        )
        if self.model == "tiny_alexnet":
            model = tiny_alexnet(
                num_classes=10, image_size=self.image_size, seed=seed
            )
        else:
            model = tiny_resnet(num_classes=10, seed=seed)
        return dataset, model

    def config(self, seed: int, tracer=None):
        from repro import TrainingConfig

        return TrainingConfig(
            scheme=self.scheme,
            exchange=self.exchange,
            world_size=self.world_size,
            batch_size=self.batch_size,
            lr=0.005,
            seed=seed,
            engine=self.engine,
            tracer=tracer,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="seq-qsgd4-mpi-k4",
            engine="sequential",
            world_size=4,
            model="tiny_alexnet",
            image_size=32,
            scheme="qsgd4",
            exchange="mpi",
            batch_size=16,
            steps_per_run=96,
        ),
        Workload(
            name="proc-qsgd4-nccl-k2",
            engine="process",
            world_size=2,
            model="tiny_resnet",
            image_size=16,
            scheme="qsgd4",
            exchange="nccl",
            batch_size=64,
            steps_per_run=70,
        ),
    )
}
